package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// key2 is a two-byte row key, so ranges of it can be checked against a
// bitmap.
func key2(k int) []byte { return []byte{byte(k >> 8), byte(k)} }

// Random ranges added one at a time leave a sorted set of disjoint,
// non-touching ranges that hides exactly the union of what was added,
// and within returns exactly the ranges overlapping a probe range.
func TestRetiredSetMatchesModel(t *testing.T) {
	const space = 300
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var rs retiredSet
		var model [space]bool
		for n := rng.Intn(12); n >= 0; n-- {
			a, b := rng.Intn(space), rng.Intn(space)
			rs = rs.with(key2(a), key2(b))
			for k := a; k < b; k++ {
				model[k] = true
			}
		}
		for i := range rs {
			if bytes.Compare(rs[i].start, rs[i].end) >= 0 {
				t.Fatalf("trial %d: empty range %x..%x in %x", trial, rs[i].start, rs[i].end, rs)
			}
			if i > 0 && bytes.Compare(rs[i-1].end, rs[i].start) >= 0 {
				t.Fatalf("trial %d: ranges %d and %d overlap or touch: %x", trial, i-1, i, rs)
			}
		}
		// One sorted pass, the way a scan and a flush use the set.
		pass := rs
		for k := 0; k < space; k++ {
			if got := pass.hides(key2(k)); got != model[k] {
				t.Fatalf("trial %d: row %d hidden = %v, want %v (set %x)", trial, k, got, model[k], rs)
			}
		}
		a, b := rng.Intn(space), rng.Intn(space)
		var want retiredSet
		for _, r := range rs {
			if bytes.Compare(r.end, key2(a)) > 0 && bytes.Compare(r.start, key2(b)) < 0 {
				want = append(want, r)
			}
		}
		if got := rs.within(key2(a), key2(b)); fmt.Sprintf("%x", got) != fmt.Sprintf("%x", want) {
			t.Fatalf("trial %d: within(%d, %d) = %x, want %x", trial, a, b, got, want)
		}
	}
}

// rows lists the rows a full scan returns, once each.
func rows(t *testing.T, tbl *Table, s Scan) []string {
	t.Helper()
	sc := tbl.NewScanner(s)
	defer sc.Close()
	var out []string
	for {
		c, ok := sc.Next()
		if !ok {
			break
		}
		if n := len(out); n == 0 || out[n-1] != string(c.Row) {
			out = append(out, string(c.Row))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// A retired range is gone from reads at once, from the memtable at the
// next flush and from the store files at the next compaction, which
// then forgets it: a later put into the range is visible.
func TestRetireRangeHidesThenDrops(t *testing.T) {
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	row := func(i int) string { return fmt.Sprintf("r%02d", i) }
	for i := 0; i < 10; i++ {
		put(t, tbl, row(i), "q", "old")
	}
	if err := tbl.Flush(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		put(t, tbl, row(i), "q", "new")
	}
	before := tbl.Mutations()
	tbl.RetireRange([]byte(row(5)), []byte(row(15)))
	if tbl.Mutations() == before {
		t.Error("RetireRange changed what scans read without moving Mutations")
	}

	want := []string{"r00", "r01", "r02", "r03", "r04", "r15", "r16", "r17", "r18", "r19"}
	if got := rows(t, tbl, Scan{}); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan after retire = %v, want %v", got, want)
	}
	if got := rows(t, tbl, Scan{Start: []byte(row(6)), End: []byte(row(9))}); len(got) != 0 {
		t.Fatalf("scan inside the retired range = %v, want none", got)
	}
	for _, i := range []int{4, 5, 14, 15} {
		_, ok := getVal(t, tbl, row(i), "q")
		if hidden := i >= 5 && i < 15; ok == hidden {
			t.Errorf("Get %s found = %v after retiring r05..r15", row(i), ok)
		}
	}

	if err := tbl.Flush(nil); err != nil {
		t.Fatal(err)
	}
	// The old file still holds r05..r09; the flush wrote only the 10
	// live rows of the memtable.
	if got := tbl.EntryCount(); got != 20 {
		t.Fatalf("entries after the flush = %d, want 10 old + 10 flushed", got)
	}
	if err := tbl.Compact(false, nil); err != nil {
		t.Fatal(err)
	}
	// A minor compaction keeps every put version: two of r00..r04, one
	// of r15..r19.
	if got := tbl.EntryCount(); got != 15 {
		t.Fatalf("entries after the compaction = %d, want the 15 versions of the live rows", got)
	}
	if n := len(tbl.store.retiredNow()); n != 0 {
		t.Fatalf("the compaction emptied the range but the store still keeps %d retired ranges", n)
	}
	put(t, tbl, row(7), "q", "later")
	if v, ok := getVal(t, tbl, row(7), "q"); !ok || v != "later" {
		t.Fatalf("put into a forgotten range: Get = %q, %v", v, ok)
	}
}

// A compaction keeps a retired range while the memtable still holds a
// cell of it: forgetting it then would bring the cell back.
func TestCompactionKeepsRangeTheMemtableHolds(t *testing.T) {
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	fillFiles(t, tbl, 2, 4)
	tbl.RetireRange([]byte("f0-"), []byte("f0-~"))
	put(t, tbl, "f0-row00009", "q", "late")
	if err := tbl.Compact(false, nil); err != nil {
		t.Fatal(err)
	}
	if n := len(tbl.store.retiredNow()); n != 1 {
		t.Fatalf("retired ranges after the compaction = %d, want the one the memtable holds a cell of", n)
	}
	if got := rows(t, tbl, Scan{}); len(got) != 4 || got[0] != "f1-row00000" {
		t.Fatalf("scan = %v, want f1's 4 rows only", got)
	}
}
