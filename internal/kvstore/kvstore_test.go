package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dualtable/internal/dfs"
	"dualtable/internal/fault"
	"dualtable/internal/sim"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 4096})
	c, err := NewCluster(fs, "/hbase")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func put(t *testing.T, tbl *Table, row, qual, val string) {
	t.Helper()
	err := tbl.Put([]*Cell{{Row: []byte(row), Family: "d", Qualifier: []byte(qual), Type: TypePut, Value: []byte(val)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func getVal(t *testing.T, tbl *Table, row, qual string) (string, bool) {
	t.Helper()
	cells, err := tbl.Get([]byte(row), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if string(c.Qualifier) == qual {
			return string(c.Value), true
		}
	}
	return "", false
}

func TestCompareCellsOrdering(t *testing.T) {
	mk := func(row, qual string, ts uint64, typ CellType) *Cell {
		return &Cell{Row: []byte(row), Family: "d", Qualifier: []byte(qual), Ts: ts, Type: typ}
	}
	ordered := []*Cell{
		mk("a", "", 5, TypeDeleteRow), // row tombstones first, newest first
		mk("a", "", 2, TypeDeleteRow),
		mk("a", "q1", 9, TypePut),
		mk("a", "q1", 3, TypeDeleteColumn), // same ts: tombstone before put
		mk("a", "q1", 3, TypePut),
		mk("a", "q2", 1, TypePut),
		mk("b", "q1", 100, TypePut),
	}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := CompareCells(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if (want < 0 && got >= 0) || (want > 0 && got <= 0) || (want == 0 && got != 0) {
				t.Errorf("CompareCells(%v, %v) = %d, want sign %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCellEncodeRoundtrip(t *testing.T) {
	c := Cell{Row: []byte("row\x00key"), Family: "fam", Qualifier: []byte("q"), Ts: 12345, Type: TypeDeleteColumn, Value: []byte("value bytes")}
	enc := appendCell(nil, &c)
	dec, n, err := decodeCell(enc, "")
	if err != nil || n != len(enc) {
		t.Fatalf("decode: %v, consumed %d of %d", err, n, len(enc))
	}
	if CompareCells(&dec, &c) != 0 || !bytes.Equal(dec.Value, c.Value) || dec.Type != c.Type {
		t.Errorf("roundtrip mismatch: %v vs %v", dec, c)
	}
}

func TestDecodeCellErrors(t *testing.T) {
	c := Cell{Row: []byte("r"), Family: "f", Qualifier: []byte("q"), Ts: 1, Type: TypePut, Value: []byte("v")}
	enc := appendCell(nil, &c)
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := decodeCell(enc[:cut], ""); err == nil {
			t.Errorf("truncation at %d should fail", cut)
		}
	}
}

func TestBloomFilter(t *testing.T) {
	f := newBloomFilter(1000, 0.01)
	for i := 0; i < 1000; i++ {
		f.Add([]byte(fmt.Sprintf("key-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !f.MayContain([]byte(fmt.Sprintf("key-%d", i))) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if f.MayContain([]byte(fmt.Sprintf("other-%d", i))) {
			fp++
		}
	}
	if fp > 300 { // 3% upper bound for a 1% target
		t.Errorf("false positive rate too high: %d/10000", fp)
	}
	enc := f.Marshal()
	f2, err := unmarshalBloom(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !f2.MayContain([]byte("key-1")) {
		t.Error("roundtripped filter lost key")
	}
	if _, err := unmarshalBloom([]byte{1, 2}); err == nil {
		t.Error("short bloom should fail")
	}
}

func TestSkiplistOrderedInsert(t *testing.T) {
	sl := newSkiplist()
	rng := rand.New(rand.NewSource(7))
	n := 500
	for i := 0; i < n; i++ {
		sl.Insert(Cell{Row: []byte(fmt.Sprintf("r%04d", rng.Intn(200))), Family: "d", Qualifier: []byte("q"), Ts: uint64(i + 1), Type: TypePut, Value: []byte("v")})
	}
	it := sl.Iterator(nil)
	defer it.Close()
	var prev *Cell
	count := 0
	for {
		c, ok := it.Next()
		if !ok {
			break
		}
		if prev != nil && CompareCells(prev, c) > 0 {
			t.Fatalf("out of order: %v after %v", c, prev)
		}
		cp := c.Clone()
		prev = &cp
		count++
	}
	if count != n {
		t.Errorf("iterated %d cells, want %d", count, n)
	}
	if sl.Count() != n {
		t.Errorf("Count = %d, want %d", sl.Count(), n)
	}
}

func TestSkiplistUpsertSameKey(t *testing.T) {
	sl := newSkiplist()
	c := Cell{Row: []byte("r"), Family: "d", Qualifier: []byte("q"), Ts: 5, Type: TypePut, Value: []byte("v1")}
	sl.Insert(c)
	c2 := c
	c2.Value = []byte("v2-longer")
	sl.Insert(c2)
	if sl.Count() != 1 {
		t.Errorf("upsert should not add entries: count=%d", sl.Count())
	}
	it := sl.Iterator(nil)
	defer it.Close()
	got, _ := it.Next()
	if string(got.Value) != "v2-longer" {
		t.Errorf("upsert value = %q", got.Value)
	}
}

func TestSkiplistSeek(t *testing.T) {
	sl := newSkiplist()
	for i := 0; i < 100; i += 2 {
		sl.Insert(Cell{Row: []byte(fmt.Sprintf("r%03d", i)), Family: "d", Qualifier: []byte("q"), Ts: 1, Type: TypePut})
	}
	it := sl.Iterator(&Cell{Row: []byte("r051"), Type: TypeDeleteRow})
	defer it.Close()
	c, ok := it.Next()
	if !ok || string(c.Row) != "r052" {
		t.Errorf("seek landed on %v", c)
	}
}

// Draining a store-file block allocates the block buffer and the cell
// slice, not a copy of every cell: the count is the same for a block of
// 8 cells and one of 512.
func TestSSTableBlockAllocsIndependentOfCells(t *testing.T) {
	drainAllocs := func(n int) float64 {
		fs := dfs.New(dfs.Config{BlockSize: 1 << 20})
		fs.MkdirAll("/t")
		w, err := fs.Create("/t/sf")
		if err != nil {
			t.Fatal(err)
		}
		sw := newSSTableWriter(w, n, 1)
		sw.blockSz = 1 << 20 // one block
		for i := 0; i < n; i++ {
			c := Cell{Row: []byte(fmt.Sprintf("row%05d", i)), Family: "df", Qualifier: []byte("3"), Ts: uint64(i + 1), Type: TypePut, Value: []byte("value")}
			if err := sw.Add(&c); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Finish(); err != nil {
			t.Fatal(err)
		}
		st, err := openSSTable(fs, "/t/sf", nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.index) != 1 {
			t.Fatalf("%d cells wrote %d blocks, want 1", n, len(st.index))
		}
		return testing.AllocsPerRun(20, func() {
			it := st.iterator(nil, nil)
			got := 0
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				got++
			}
			if got != n || it.Close() != nil {
				t.Fatalf("drained %d of %d cells", got, n)
			}
		})
	}
	small, large := drainAllocs(8), drainAllocs(512)
	if small != large {
		t.Errorf("draining a block of 8 cells allocates %v times, of 512 cells %v times", small, large)
	}
}

func TestSSTableWriteReadSeek(t *testing.T) {
	fs := dfs.New(dfs.Config{BlockSize: 1 << 20})
	fs.MkdirAll("/t")
	w, err := fs.Create("/t/sf-1")
	if err != nil {
		t.Fatal(err)
	}
	sw := newSSTableWriter(w, 1000, 7)
	n := 1000
	for i := 0; i < n; i++ {
		c := Cell{Row: []byte(fmt.Sprintf("row%05d", i)), Family: "d", Qualifier: []byte("q"), Ts: uint64(i + 1), Type: TypePut, Value: bytes.Repeat([]byte("x"), 20)}
		if err := sw.Add(&c); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Finish(); err != nil {
		t.Fatal(err)
	}
	st, err := openSSTable(fs, "/t/sf-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.entries != uint64(n) || st.seq != 7 {
		t.Errorf("entries=%d seq=%d", st.entries, st.seq)
	}
	if len(st.index) < 2 {
		t.Errorf("expected multiple blocks, got %d", len(st.index))
	}
	// Full iteration.
	it := st.iterator(nil, nil)
	count := 0
	for {
		_, ok := it.Next()
		if !ok {
			break
		}
		count++
	}
	if count != n {
		t.Errorf("full scan = %d cells, want %d", count, n)
	}
	// Seek into the middle.
	it2 := st.iterator([]byte("row00500"), nil)
	c, ok := it2.Next()
	if !ok || string(c.Row) != "row00500" {
		t.Errorf("seek = %v", c)
	}
	// Seek past the end.
	it3 := st.iterator([]byte("zzz"), nil)
	if _, ok := it3.Next(); ok {
		t.Error("seek past end should be empty")
	}
	// Bloom filter works.
	if !st.bloom.MayContain([]byte("row00001")) {
		t.Error("bloom false negative")
	}
}

func TestOpenSSTableRejectsGarbage(t *testing.T) {
	fs := dfs.New(dfs.Config{BlockSize: 1024})
	fs.WriteFile("/junk", bytes.Repeat([]byte("a"), 100))
	if _, err := openSSTable(fs, "/junk", nil); err == nil {
		t.Error("garbage file should not open")
	}
	fs.WriteFile("/small", []byte("x"))
	if _, err := openSSTable(fs, "/small", nil); err == nil {
		t.Error("tiny file should not open")
	}
}

func TestWALReplay(t *testing.T) {
	fs := dfs.New(dfs.Config{BlockSize: 4096})
	fs.MkdirAll("/r")
	w, rec, err := openWAL(fs, "/r")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 0 {
		t.Errorf("fresh WAL recovered %d cells", len(rec))
	}
	cells := []*Cell{
		{Row: []byte("a"), Family: "d", Qualifier: []byte("q"), Ts: 1, Type: TypePut, Value: []byte("v1")},
		{Row: []byte("b"), Family: "d", Qualifier: []byte("q"), Ts: 2, Type: TypeDeleteRow},
	}
	if err := w.Append(cells); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, rec2, err := openWAL(fs, "/r")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2) != 2 || string(rec2[0].Row) != "a" || rec2[1].Type != TypeDeleteRow {
		t.Errorf("replay = %v", rec2)
	}
}

func TestWALTruncatedTailTolerated(t *testing.T) {
	fs := dfs.New(dfs.Config{BlockSize: 4096})
	fs.MkdirAll("/r")
	w, _, err := openWAL(fs, "/r")
	if err != nil {
		t.Fatal(err)
	}
	c := Cell{Row: []byte("a"), Family: "d", Qualifier: []byte("q"), Ts: 1, Type: TypePut, Value: []byte("v")}
	w.Append([]*Cell{&c})
	w.Close()
	data, _ := fs.ReadFile("/r/wal-000001")
	// Append garbage simulating a torn write.
	aw, _ := fs.Append("/r/wal-000001")
	aw.Write([]byte{0x55, 0x01, 0x02})
	aw.Close()
	_, rec, err := openWAL(fs, "/r")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 1 {
		t.Errorf("recovered %d cells, want 1 (good prefix of %d bytes)", len(rec), len(data))
	}
}

func TestStorePutGetBasic(t *testing.T) {
	c := testCluster(t)
	tbl, err := c.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	put(t, tbl, "row1", "col1", "v1")
	put(t, tbl, "row1", "col2", "v2")
	put(t, tbl, "row2", "col1", "v3")
	if v, ok := getVal(t, tbl, "row1", "col1"); !ok || v != "v1" {
		t.Errorf("get row1:col1 = %q,%v", v, ok)
	}
	if v, ok := getVal(t, tbl, "row1", "col2"); !ok || v != "v2" {
		t.Errorf("get row1:col2 = %q,%v", v, ok)
	}
	if _, ok := getVal(t, tbl, "row3", "col1"); ok {
		t.Error("absent row should miss")
	}
}

func TestOverwriteReturnsLatest(t *testing.T) {
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	put(t, tbl, "r", "q", "old")
	put(t, tbl, "r", "q", "new")
	if v, _ := getVal(t, tbl, "r", "q"); v != "new" {
		t.Errorf("latest = %q", v)
	}
}

func TestDeleteRowHidesAll(t *testing.T) {
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	put(t, tbl, "r", "q1", "v1")
	put(t, tbl, "r", "q2", "v2")
	if err := tbl.DeleteRow([]byte("r"), nil); err != nil {
		t.Fatal(err)
	}
	cells, err := tbl.Get([]byte("r"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Errorf("deleted row still visible: %v", cells)
	}
	// Writing after the delete resurrects the row (newer ts).
	put(t, tbl, "r", "q1", "v3")
	if v, ok := getVal(t, tbl, "r", "q1"); !ok || v != "v3" {
		t.Errorf("post-delete write = %q,%v", v, ok)
	}
	if _, ok := getVal(t, tbl, "r", "q2"); ok {
		t.Error("q2 should stay deleted")
	}
}

func TestDeleteColumnHidesOnlyColumn(t *testing.T) {
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	put(t, tbl, "r", "q1", "v1")
	put(t, tbl, "r", "q2", "v2")
	tbl.DeleteColumn([]byte("r"), "d", []byte("q1"), nil)
	if _, ok := getVal(t, tbl, "r", "q1"); ok {
		t.Error("q1 should be deleted")
	}
	if v, ok := getVal(t, tbl, "r", "q2"); !ok || v != "v2" {
		t.Errorf("q2 = %q,%v", v, ok)
	}
}

func TestFlushAndReadFromStoreFile(t *testing.T) {
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	for i := 0; i < 100; i++ {
		put(t, tbl, fmt.Sprintf("row%03d", i), "q", fmt.Sprintf("v%d", i))
	}
	if err := tbl.Flush(nil); err != nil {
		t.Fatal(err)
	}
	if tbl.store.fileCount() != 1 {
		t.Errorf("fileCount = %d", tbl.store.fileCount())
	}
	if v, ok := getVal(t, tbl, "row042", "q"); !ok || v != "v42" {
		t.Errorf("after flush = %q,%v", v, ok)
	}
	// Overwrite after flush: memtable must shadow the file.
	put(t, tbl, "row042", "q", "fresh")
	if v, _ := getVal(t, tbl, "row042", "q"); v != "fresh" {
		t.Errorf("memtable should shadow file: %q", v)
	}
}

func TestAutoFlushOnThreshold(t *testing.T) {
	c := testCluster(t)
	c.cfg.flushBytes = 512
	tbl, _ := c.CreateTable("t")
	for i := 0; i < 100; i++ {
		put(t, tbl, fmt.Sprintf("row%03d", i), "q", "some value content")
	}
	if tbl.store.fileCount() == 0 {
		t.Error("expected automatic flushes")
	}
	for i := 0; i < 100; i++ {
		if v, ok := getVal(t, tbl, fmt.Sprintf("row%03d", i), "q"); !ok || v != "some value content" {
			t.Fatalf("row%03d lost after auto flush: %q %v", i, v, ok)
		}
	}
}

func TestScanRangeAcrossMemAndFiles(t *testing.T) {
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	for i := 0; i < 50; i++ {
		put(t, tbl, fmt.Sprintf("row%03d", i), "q", "file")
	}
	tbl.Flush(nil)
	for i := 50; i < 100; i++ {
		put(t, tbl, fmt.Sprintf("row%03d", i), "q", "mem")
	}
	sc := tbl.NewScanner(Scan{Start: []byte("row020"), End: []byte("row080")})
	defer sc.Close()
	var rows []string
	for {
		cell, ok := sc.Next()
		if !ok {
			break
		}
		rows = append(rows, string(cell.Row))
	}
	if len(rows) != 60 {
		t.Fatalf("scan returned %d rows, want 60", len(rows))
	}
	if rows[0] != "row020" || rows[59] != "row079" {
		t.Errorf("range bounds wrong: %s..%s", rows[0], rows[59])
	}
	if !sort.StringsAreSorted(rows) {
		t.Error("scan out of order")
	}
}

func TestScanMaxVersions(t *testing.T) {
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	put(t, tbl, "r", "q", "v1")
	put(t, tbl, "r", "q", "v2")
	put(t, tbl, "r", "q", "v3")
	sc := tbl.NewScanner(Scan{MaxVersions: 2})
	defer sc.Close()
	var vals []string
	for {
		cell, ok := sc.Next()
		if !ok {
			break
		}
		vals = append(vals, string(cell.Value))
	}
	if len(vals) != 2 || vals[0] != "v3" || vals[1] != "v2" {
		t.Errorf("versions = %v", vals)
	}
}

func TestMinorCompactionPreservesView(t *testing.T) {
	c := testCluster(t)
	c.cfg.compactFiles = 100 // manual only
	tbl, _ := c.CreateTable("t")
	put(t, tbl, "a", "q", "v1")
	tbl.Flush(nil)
	put(t, tbl, "a", "q", "v2")
	put(t, tbl, "b", "q", "x")
	tbl.Flush(nil)
	tbl.DeleteRow([]byte("b"), nil)
	tbl.Flush(nil)
	if got := tbl.store.fileCount(); got != 3 {
		t.Fatalf("fileCount = %d", got)
	}
	if err := tbl.Compact(false, nil); err != nil {
		t.Fatal(err)
	}
	if got := tbl.store.fileCount(); got != 1 {
		t.Errorf("after minor compact fileCount = %d", got)
	}
	if v, _ := getVal(t, tbl, "a", "q"); v != "v2" {
		t.Errorf("a = %q", v)
	}
	if _, ok := getVal(t, tbl, "b", "q"); ok {
		t.Error("b should stay deleted after minor compaction (tombstone dropped with the put it masks)")
	}
}

// scanVersions renders every version a full scan returns, in order.
func scanVersions(t *testing.T, tbl *Table) []string {
	t.Helper()
	sc := tbl.NewScanner(Scan{MaxVersions: math.MaxInt32})
	var out []string
	for {
		c, ok := sc.Next()
		if !ok {
			break
		}
		out = append(out, fmt.Sprintf("%s/%s:%s@%d=%s", c.Row, c.Family, c.Qualifier, c.Ts, c.Value))
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMinorCompactionDropsTombstonesKeepsView: a seeded history of
// multi-version puts, row deletes and column deletes, spread over many
// store files and the memtable, scans the same — every version — before
// and after a minor compaction, and the compacted store file holds no
// tombstone.
func TestMinorCompactionDropsTombstonesKeepsView(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c := testCluster(t)
		c.cfg.compactFiles = 100 // manual only
		tbl, _ := c.CreateTable(fmt.Sprintf("t%d", seed))
		rng := rand.New(rand.NewSource(seed))
		var deletes int
		for op := 0; op < 600; op++ {
			row := []byte(fmt.Sprintf("row%02d", rng.Intn(20)))
			qual := []byte(fmt.Sprintf("q%d", rng.Intn(3)))
			var err error
			switch n := rng.Intn(20); {
			case n == 0:
				err = tbl.DeleteRow(row, nil)
				deletes++
			case n < 3:
				err = tbl.DeleteColumn(row, "d", qual, nil)
				deletes++
			case n < 4 && op < 550: // the last ops stay in the memtable
				err = tbl.Flush(nil)
			default:
				err = tbl.Put([]*Cell{{Row: row, Family: "d", Qualifier: qual, Type: TypePut, Value: []byte(fmt.Sprint(op))}}, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if files := tbl.store.fileCount(); files < 10 || deletes < 50 {
			t.Fatalf("seed %d: history of %d files and %d deletes is too thin", seed, files, deletes)
		}
		before := scanVersions(t, tbl)
		if err := tbl.Compact(false, nil); err != nil {
			t.Fatal(err)
		}
		if got := scanVersions(t, tbl); !reflect.DeepEqual(got, before) {
			t.Fatalf("seed %d: minor compaction changed the view: %d versions before, %d after", seed, len(before), len(got))
		}
		st := tbl.store
		if st.fileCount() != 1 {
			t.Fatalf("seed %d: %d store files after the compaction", seed, st.fileCount())
		}
		raw := st.files[0].iterator(nil, nil)
		for {
			cell, ok := raw.Next()
			if !ok {
				break
			}
			if cell.Type != TypePut {
				t.Errorf("seed %d: tombstone survived minor compaction: %v", seed, cell)
			}
		}
		if err := raw.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMajorCompactionDropsTombstones(t *testing.T) {
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	put(t, tbl, "a", "q", "keep")
	put(t, tbl, "b", "q", "dead")
	tbl.DeleteRow([]byte("b"), nil)
	if err := tbl.Compact(true, nil); err != nil {
		t.Fatal(err)
	}
	st := tbl.store
	if st.fileCount() != 1 {
		t.Fatalf("fileCount = %d", st.fileCount())
	}
	// The one store file should hold only the surviving put.
	raw := st.files[0].iterator(nil, nil)
	defer raw.Close()
	var n int
	for {
		cell, ok := raw.Next()
		if !ok {
			break
		}
		if cell.Type != TypePut {
			t.Errorf("tombstone survived major compaction: %v", cell)
		}
		n++
	}
	if n != 1 {
		t.Errorf("raw cells after major compact = %d, want 1", n)
	}
	if v, _ := getVal(t, tbl, "a", "q"); v != "keep" {
		t.Errorf("a = %q", v)
	}
}

// fillFiles flushes files store files of per cells each, with disjoint
// key ranges.
func fillFiles(t *testing.T, tbl *Table, files, per int) {
	t.Helper()
	for f := 0; f < files; f++ {
		cells := make([]*Cell, per)
		for i := range cells {
			cells[i] = &Cell{Row: []byte(fmt.Sprintf("f%d-row%05d", f, i)), Family: "d", Qualifier: []byte("q"),
				Type: TypePut, Value: []byte("value")}
		}
		if err := tbl.Put(cells, nil); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Flush(nil); err != nil {
			t.Fatal(err)
		}
	}
}

// storeFiles lists the store files on disk in the table's directory.
func storeFiles(t *testing.T, tbl *Table) []string {
	t.Helper()
	infos, err := tbl.store.fs.ListFiles(tbl.store.dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, fi := range infos {
		if !strings.HasPrefix(fi.Name, walPrefix) {
			names = append(names, fi.Name)
		}
	}
	return names
}

// A compaction that replaces the files an open scan is reading leaves
// them on disk until the scan is done: the scan returns every cell, and
// the last reader to let go deletes the replaced files.
func TestScanAcrossCompactionKeepsStoreFiles(t *testing.T) {
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	fillFiles(t, tbl, 3, 2000)
	sc := tbl.NewScanner(Scan{})
	n := 0
	for ; n < 10; n++ {
		if _, ok := sc.Next(); !ok {
			t.Fatal("scan ended early")
		}
	}
	if err := tbl.Compact(false, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(storeFiles(t, tbl)); got != 4 {
		t.Errorf("%d store files on disk under the open scan, want the 3 replaced and the merged one", got)
	}
	for _, ok := sc.Next(); ok; _, ok = sc.Next() {
		n++
	}
	if err := sc.Err(); err != nil {
		t.Errorf("Err = %v", err)
	}
	if err := sc.Close(); err != nil {
		t.Errorf("Close = %v", err)
	}
	if n != 6000 {
		t.Errorf("the scan saw %d of 6000 cells", n)
	}
	if got := storeFiles(t, tbl); len(got) != 1 {
		t.Errorf("store files after the scan = %v, want only the merged one", got)
	}
}

// A read error ends the scan and reaches the caller through Err and
// Close.
func TestScannerReportsReadErrors(t *testing.T) {
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	fillFiles(t, tbl, 1, 2000)
	sc := tbl.NewScanner(Scan{})
	if _, ok := sc.Next(); !ok {
		t.Fatal("empty scan")
	}
	if err := c.fs.Delete(tbl.store.files[0].path, false); err != nil {
		t.Fatal(err)
	}
	for _, ok := sc.Next(); ok; _, ok = sc.Next() {
	}
	if err := sc.Err(); !errors.Is(err, dfs.ErrNotFound) {
		t.Errorf("Err = %v, want %v", err, dfs.ErrNotFound)
	}
	if err := sc.Close(); !errors.Is(err, dfs.ErrNotFound) {
		t.Errorf("Close = %v, want %v", err, dfs.ErrNotFound)
	}
}

// A compaction whose delete of a replaced file fails still succeeds;
// the next compaction deletes the file.
func TestCompactionRetriesFailedStoreFileDelete(t *testing.T) {
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	fillFiles(t, tbl, 2, 10)
	replaced := tbl.store.files[1].path
	c.fs.SetFaultInjector(fault.NewSchedule(dfs.FaultRule{Op: dfs.OpDelete, Subject: replaced}))
	if err := tbl.Compact(false, nil); err != nil {
		t.Fatalf("a failed delete of a replaced file failed the compaction: %v", err)
	}
	c.fs.SetFaultInjector(nil)
	if !c.fs.Exists(replaced) {
		t.Fatal("the injected delete fault did not fire")
	}
	fillFiles(t, tbl, 1, 10)
	if err := tbl.Compact(false, nil); err != nil {
		t.Fatal(err)
	}
	if got := storeFiles(t, tbl); len(got) != 1 {
		t.Errorf("store files after the second compaction = %v, want only the merged one", got)
	}
}

func TestWALRecoveryAfterReopen(t *testing.T) {
	fs := dfs.New(dfs.Config{BlockSize: 4096})
	st, err := openStore(fs, "/r", defaultStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	cells := []*Cell{{Row: []byte("k"), Family: "d", Qualifier: []byte("q"), Ts: 9, Type: TypePut, Value: []byte("durable")}}
	if err := st.put(cells, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: no flush, no close; reopen from the same dir.
	st2, err := openStore(fs, "/r", defaultStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := st2.get([]byte("k"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Value) != "durable" {
		t.Errorf("post-crash get = %v", got)
	}
}

func TestClusterTableLifecycle(t *testing.T) {
	c := testCluster(t)
	if _, err := c.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t"); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate create = %v", err)
	}
	if !c.HasTable("t") {
		t.Error("HasTable false")
	}
	names := c.TableNames()
	if len(names) != 1 || names[0] != "t" {
		t.Errorf("TableNames = %v", names)
	}
	tbl, _ := c.Table("t")
	put(t, tbl, "r", "q", "v")
	if err := c.TruncateTable("t"); err != nil {
		t.Fatal(err)
	}
	tbl, _ = c.Table("t")
	if n := tbl.EntryCount(); n != 0 {
		t.Errorf("entries after truncate = %d", n)
	}
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("t"); !errors.Is(err, ErrTableNotFound) {
		t.Errorf("dropped table lookup = %v", err)
	}
	if err := c.DropTable("t"); !errors.Is(err, ErrTableNotFound) {
		t.Errorf("double drop = %v", err)
	}
}

func TestRowScannerGroupsRows(t *testing.T) {
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	put(t, tbl, "r1", "a", "1")
	put(t, tbl, "r1", "b", "2")
	put(t, tbl, "r2", "a", "3")
	rs := tbl.NewRowScanner(Scan{})
	defer rs.Close()
	r1, ok := rs.Next()
	if !ok || string(r1.Row) != "r1" || len(r1.Cells) != 2 {
		t.Fatalf("r1 = %v %v", r1, ok)
	}
	if string(r1.Value("d", []byte("b"))) != "2" {
		t.Errorf("Value lookup = %q", r1.Value("d", []byte("b")))
	}
	if r1.Value("d", []byte("zz")) != nil {
		t.Error("missing qualifier should be nil")
	}
	r2, ok := rs.Next()
	if !ok || string(r2.Row) != "r2" || len(r2.Cells) != 1 {
		t.Fatalf("r2 = %v %v", r2, ok)
	}
	if _, ok := rs.Next(); ok {
		t.Error("scanner should be exhausted")
	}
}

func TestMeterChargedOnOps(t *testing.T) {
	p := sim.GridCluster()
	m := sim.NewMeter(&p)
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	err := tbl.Put([]*Cell{{Row: []byte("r"), Family: "d", Qualifier: []byte("q"), Type: TypePut, Value: []byte("v")}}, m)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seconds() <= 0 {
		t.Error("put should charge the meter")
	}
	before := m.Seconds()
	if _, err := tbl.Get([]byte("r"), m); err != nil {
		t.Fatal(err)
	}
	if m.Seconds() <= before {
		t.Error("get should charge the meter")
	}
}

// referenceModel is a naive in-memory model of the visible view used
// for differential testing.
type referenceModel struct {
	data map[string]map[string]refVal // row -> qual -> latest
}

type refVal struct {
	ts  uint64
	val string
}

func newReferenceModel() *referenceModel {
	return &referenceModel{data: map[string]map[string]refVal{}}
}

func (r *referenceModel) put(row, qual, val string, ts uint64) {
	m, ok := r.data[row]
	if !ok {
		m = map[string]refVal{}
		r.data[row] = m
	}
	if cur, ok := m[qual]; !ok || ts >= cur.ts {
		m[qual] = refVal{ts: ts, val: val}
	}
}

func (r *referenceModel) deleteRow(row string, ts uint64) {
	m := r.data[row]
	for q, v := range m {
		if v.ts <= ts {
			delete(m, q)
		}
	}
}

func (r *referenceModel) visible() map[string]map[string]string {
	out := map[string]map[string]string{}
	for row, cols := range r.data {
		for q, v := range cols {
			if out[row] == nil {
				out[row] = map[string]string{}
			}
			out[row][q] = v.val
		}
	}
	return out
}

func TestPropertyDifferentialAgainstModel(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := testCluster(t)
			c.cfg.flushBytes = 2 << 10 // force frequent flushes
			c.cfg.compactFiles = 3
			tbl, _ := c.CreateTable("t")
			model := newReferenceModel()
			for op := 0; op < 800; op++ {
				row := fmt.Sprintf("row%02d", rng.Intn(40))
				qual := fmt.Sprintf("q%d", rng.Intn(4))
				switch rng.Intn(10) {
				case 0: // delete row
					ts := c.NextTs()
					err := tbl.Put([]*Cell{{Row: []byte(row), Ts: ts, Type: TypeDeleteRow}}, nil)
					if err != nil {
						t.Fatal(err)
					}
					model.deleteRow(row, ts)
				case 1: // flush
					if err := tbl.Flush(nil); err != nil {
						t.Fatal(err)
					}
				case 2: // compact
					if err := tbl.Compact(rng.Intn(2) == 0, nil); err != nil {
						t.Fatal(err)
					}
				default: // put
					ts := c.NextTs()
					val := fmt.Sprintf("v%d", op)
					err := tbl.Put([]*Cell{{Row: []byte(row), Family: "d", Qualifier: []byte(qual), Ts: ts, Type: TypePut, Value: []byte(val)}}, nil)
					if err != nil {
						t.Fatal(err)
					}
					model.put(row, qual, val, ts)
				}
			}
			// Compare full visible views via scan.
			got := map[string]map[string]string{}
			rs := tbl.NewRowScanner(Scan{})
			defer rs.Close()
			for {
				r, ok := rs.Next()
				if !ok {
					break
				}
				row := string(r.Row)
				got[row] = map[string]string{}
				for _, cell := range r.Cells {
					got[row][string(cell.Qualifier)] = string(cell.Value)
				}
			}
			want := model.visible()
			for row, cols := range want {
				for q, v := range cols {
					if got[row][q] != v {
						t.Fatalf("seed %d: row %s q %s: got %q want %q", seed, row, q, got[row][q], v)
					}
				}
			}
			for row, cols := range got {
				for q := range cols {
					if _, ok := want[row][q]; !ok {
						t.Fatalf("seed %d: phantom cell %s:%s", seed, row, q)
					}
				}
			}
		})
	}
}

// Mutations moves at the start and at the end of every operation that
// changes what a scan reads or is charged, and of nothing else.
func TestMutationsBracketEveryChange(t *testing.T) {
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	moved := func(what string, want uint64, fn func()) {
		t.Helper()
		before := tbl.Mutations()
		fn()
		if got := tbl.Mutations() - before; got != want {
			t.Errorf("%s moved the counter by %d, want %d", what, got, want)
		}
	}
	moved("an empty Put", 0, func() { tbl.Put(nil, nil) })
	moved("200 Puts", 400, func() {
		for i := 0; i < 200; i++ {
			put(t, tbl, fmt.Sprintf("row%04d", i), "q", "v")
		}
	})
	moved("a Get and a scan", 0, func() {
		getVal(t, tbl, "row0001", "q")
		sc := tbl.NewScanner(Scan{})
		for {
			if _, ok := sc.Next(); !ok {
				break
			}
		}
		sc.Close()
	})
	moved("Flush", 2, func() { tbl.Flush(nil) })
	moved("Compact", 2, func() { tbl.Compact(false, nil) })
	moved("RetireRange", 2, func() { tbl.RetireRange([]byte("row0100"), []byte("row0110")) })
	// Truncate swaps the table; the old one's counter says nothing about
	// the new one's cells.
	if err := c.TruncateTable("t"); err != nil {
		t.Fatal(err)
	}
	if fresh, _ := c.Table("t"); fresh == tbl {
		t.Error("TruncateTable kept the *Table: a counter comparison would span two contents")
	}
}

// A scan between two equal readings of Mutations saw a table nothing
// was changing: with one writer an even reading is a quiet table, so
// such a scan returns whole batches — all of the batches finished by
// then — and two of them at one reading are charged alike. The store
// flushes and compacts inside the Puts.
func TestMutationsOrderScansAgainstPuts(t *testing.T) {
	c := testCluster(t)
	c.cfg.flushBytes = 2048
	c.cfg.compactFiles = 3
	tbl, _ := c.CreateTable("t")
	const batches, perBatch = 60, 8
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0; b < batches; b++ {
			cells := make([]*Cell, perBatch)
			for i := range cells {
				cells[i] = &Cell{Row: []byte(fmt.Sprintf("row%04d-%d", b, i)), Family: "d", Qualifier: []byte("q"),
					Type: TypePut, Value: []byte("value-value-value")}
			}
			if err := tbl.Put(cells, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	params := sim.GridCluster()
	scan := func() (int, float64) {
		m := sim.NewMeter(&params)
		sc := tbl.NewScanner(Scan{Meter: m})
		n := 0
		for {
			if _, ok := sc.Next(); !ok {
				break
			}
			n++
		}
		if err := sc.Close(); err != nil {
			t.Error(err)
		}
		return n, m.Seconds()
	}
	quiet := 0
	lastAt, lastSecs := uint64(1), 0.0
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // one more scan, of the finished table
		default:
		}
		before := tbl.Mutations()
		n, secs := scan()
		if tbl.Mutations() != before || before%2 != 0 {
			continue
		}
		quiet++
		if want := int(before/2) * perBatch; n != want {
			t.Fatalf("a scan at reading %d saw %d cells, want the %d of the finished batches", before, n, want)
		}
		if before == lastAt && secs != lastSecs {
			t.Fatalf("two scans at reading %d were charged %v and %v", before, lastSecs, secs)
		}
		lastAt, lastSecs = before, secs
	}
	if quiet == 0 {
		t.Fatal("no scan ran between two equal readings")
	}
	if got := tbl.Mutations(); got != 2*batches {
		t.Errorf("counter at %d after %d Puts, want %d", got, batches, 2*batches)
	}
}
