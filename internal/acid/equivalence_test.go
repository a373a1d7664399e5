package acid

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/hive"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/orcfile"
)

// seedWide loads table a as two base files of 2500 rows (three batches
// each), with NULLs in the nullable columns.
func seedWide(t *testing.T, e *hive.Engine) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE a (id BIGINT, grp BIGINT, v DOUBLE, tag STRING) STORED AS ACID")
	for f := 0; f < 2; f++ {
		var sb strings.Builder
		sb.WriteString("INSERT INTO a VALUES ")
		for i := 0; i < 2500; i++ {
			id := f*2500 + i
			v, tag := fmt.Sprintf("%d.25", id), fmt.Sprintf("'t%d'", id%5)
			if id%97 == 0 {
				v = "NULL"
			}
			if id%89 == 0 {
				tag = "NULL"
			}
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %s, %s)", id, id%10, v, tag)
		}
		mustExec(t, e, sb.String())
	}
}

// acidHistory is the DML the equivalence trace applies, one transaction
// (one delta) per statement. Record 10 is written by four of them with
// its neighbour deleted in between; later statements touch both base
// files, filter through adaptor conjuncts, and delete across batches.
var acidHistory = []string{
	"UPDATE a SET v = v + 1000 WHERE id = 10",
	"UPDATE a SET tag = 'twice', v = 2.5 WHERE id = 10",
	"DELETE FROM a WHERE id = 11",
	"UPDATE a SET grp = 42 WHERE id = 10",
	"UPDATE a SET v = grp * 2 + 0.5, tag = 'g3' WHERE grp = 3",
	"UPDATE a SET tag = NULL WHERE tag LIKE 't1%' AND id >= 2400 AND id < 2600",
	"DELETE FROM a WHERE id % 1250 = 7",
	"UPDATE a SET v = v WHERE id >= 3000 AND id < 3100",
	"UPDATE a SET tag = 'last' WHERE id = 10 OR v IS NULL",
}

// acidQueries: filter, aggregate, ORDER BY/LIMIT, and projections that
// omit columns the history updated (v and tag), which the overlay still
// sets on every updated record.
var acidQueries = []string{
	"SELECT id, grp, v, tag FROM a ORDER BY id",
	"SELECT id, grp FROM a WHERE grp < 3 OR grp = 42 ORDER BY id",
	"SELECT id FROM a WHERE v > 4000.5 AND tag = 'g3' ORDER BY id",
	"SELECT grp, COUNT(*), SUM(v), MIN(tag), COUNT(DISTINCT tag) FROM a GROUP BY grp ORDER BY grp",
	"SELECT COUNT(*), SUM(id) FROM a WHERE id % 7 = 0",
	"SELECT id, v FROM a ORDER BY v DESC, id LIMIT 7",
	"SELECT id, tag FROM a WHERE tag LIKE 'l%' OR id IN (9, 10, 11, 12) ORDER BY id",
}

// runAcidScan runs one identity map-only job (rows with their record ID
// appended) over the table's splits.
func runAcidScan(t *testing.T, e *hive.Engine, h *Handler, opts hive.ScanOptions) (rows []string, counts mapred.Counters, sim float64) {
	t.Helper()
	desc, err := e.MS.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	splits, release, err := h.Splits(desc, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	res, err := e.MR.Run(&mapred.Job{
		Name:   "acid-scan-equivalence",
		Splits: splits,
		NewMapper: func() mapred.Mapper {
			return mapred.MapFunc(func(row datum.Row, meta mapred.RecordMeta, emit mapred.Emitter) error {
				return emit(nil, append(row.Clone(), datum.Int(int64(meta.RecordID))))
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		rows = append(rows, r.String())
	}
	return rows, res.Counters, res.SimSeconds
}

// acidTrace applies the history on a fresh engine and records
// everything the equivalence contract covers: per statement its plan,
// Affected and exact SimSeconds, then every query's rows and SimSeconds,
// then a raw scan's rows (with record IDs), Counters and SimSeconds —
// full, and projected without the updated columns.
func acidTrace(t *testing.T, workers int, rowScan bool) []string {
	e, h := testEngine(t)
	e.MR.Parallelism, e.MR.DisableBatchScan = workers, rowScan
	seedWide(t, e)
	var trace []string
	for _, stmt := range acidHistory {
		rs := mustExec(t, e, stmt)
		trace = append(trace, fmt.Sprintf("%s: %s affected=%d sim=%x", stmt, rs.Plan, rs.Affected, math.Float64bits(rs.SimSeconds)))
		for _, q := range acidQueries {
			rs := mustExec(t, e, q)
			trace = append(trace, fmt.Sprintf("%s: sim=%x", q, math.Float64bits(rs.SimSeconds)))
			for _, r := range rs.Rows {
				trace = append(trace, r.String())
			}
		}
		for _, opts := range []hive.ScanOptions{{}, {Projection: []int{0, 1}}} {
			rows, counts, sim := runAcidScan(t, e, h, opts)
			trace = append(trace, fmt.Sprintf("scan %v: %+v sim=%x", opts.Projection, counts, math.Float64bits(sim)))
			trace = append(trace, rows...)
		}
	}
	return trace
}

// TestAcidBatchRowEquivalence: base + delta reads through the shared
// ORC reader are byte-identical — rows, Counters, SimSeconds, and the
// DML that scans them — in batch and row mode with 1 and 4 workers.
func TestAcidBatchRowEquivalence(t *testing.T) {
	var ref []string
	for _, workers := range []int{1, 4} {
		for _, rowScan := range []bool{true, false} {
			trace := acidTrace(t, workers, rowScan)
			if ref == nil {
				ref = trace
				// The history did what its comments say.
				if !slices.Contains(ref, "10\t42\t2.5\tlast") || slices.ContainsFunc(ref, func(s string) bool { return strings.HasPrefix(s, "11\t9\t") }) {
					t.Fatal("reference trace: record 10 is not (10, 42, 2.5, 'last') or record 11 survived")
				}
				continue
			}
			if len(trace) != len(ref) {
				t.Fatalf("workers=%d rowScan=%v: trace has %d lines, reference %d", workers, rowScan, len(trace), len(ref))
			}
			for i := range ref {
				if trace[i] != ref[i] {
					t.Fatalf("workers=%d rowScan=%v: trace line %d\n got %s\nwant %s", workers, rowScan, i, trace[i], ref[i])
				}
			}
		}
	}
}

// shapeMapper counts the batches the map loop hands it with every slot
// live and with a selection.
type shapeMapper struct{ whole, selected *int }

func (m shapeMapper) MapBatch(b *mapred.RecordBatch, _ mapred.Emitter) error {
	if b.Sel == nil {
		*m.whole++
	} else {
		*m.selected++
	}
	return nil
}

func (shapeMapper) Flush(mapred.Emitter) error { return nil }

// TestAcidScanTakesBatchPath pins what the equivalence test relies on:
// the map loop gets batches with every slot live from an ACID split —
// on a clean table and where deltas only update — and a selection only
// for a batch that holds a delete.
func TestAcidScanTakesBatchPath(t *testing.T) {
	e, h := testEngine(t)
	e.MR.Parallelism = 1
	seedWide(t, e)
	desc, _ := e.MS.Get("a")
	shapes := func() (whole, selected int) {
		splits, release, err := h.Splits(desc, hive.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		for _, s := range splits {
			rr, err := s.Open(nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := rr.(mapred.BatchRecordReader); !ok {
				t.Fatalf("%T does not serve batches", rr)
			}
			rr.Close()
		}
		_, err = e.MR.Run(&mapred.Job{Name: "shapes", Splits: splits,
			NewMapper: func() mapred.Mapper { return shapeMapper{&whole, &selected} }})
		if err != nil {
			t.Fatal(err)
		}
		return whole, selected
	}
	// Two files of 2500 rows: three batches each.
	if w, s := shapes(); w != 6 || s != 0 {
		t.Fatalf("clean table: %d whole and %d selected batches, want 6 and 0", w, s)
	}
	mustExec(t, e, "UPDATE a SET v = 1.5, tag = 'u' WHERE grp = 4")
	if w, s := shapes(); w != 6 || s != 0 {
		t.Fatalf("updates only: %d whole and %d selected batches, want 6 and 0", w, s)
	}
	mustExec(t, e, "DELETE FROM a WHERE id = 3000")
	if w, s := shapes(); w != 5 || s != 1 {
		t.Fatalf("one delete: %d whole and %d selected batches, want 5 and 1", w, s)
	}
}

// TestAcidBaseFileWithoutFileIDRejected: a base file whose footer lacks
// (or garbles) acid.fileid must fail the scan by name, not read as
// file 0 and share a record-ID range with another such file.
func TestAcidBaseFileWithoutFileIDRejected(t *testing.T) {
	for name, meta := range map[string]map[string]string{
		"missing": nil,
		"garbled": {fileIDMetaKey: "seven"},
	} {
		e, _ := testEngine(t)
		seed(t, e)
		desc, _ := e.MS.Get("a")
		p := baseDir(desc) + "/base-stray.orc"
		writeBaseFile(t, e, desc, p, meta)
		_, err := e.Execute("SELECT COUNT(*) FROM a")
		if err == nil || !strings.Contains(err.Error(), p) || !strings.Contains(err.Error(), fileIDMetaKey) {
			t.Errorf("%s %s: scan = %v, want an error naming the file and the key", name, fileIDMetaKey, err)
		}
		if _, err := e.Execute("UPDATE a SET v = 0.0 WHERE id = 1"); err == nil {
			t.Errorf("%s %s: UPDATE succeeded", name, fileIDMetaKey)
		}
	}
}

// writeBaseFile writes a one-row ORC file with the given user metadata.
func writeBaseFile(t *testing.T, e *hive.Engine, desc *metastore.TableDesc, p string, meta map[string]string) {
	t.Helper()
	fw, err := e.FS.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	w, err := orcfile.NewWriter(fw, desc.Schema, orcfile.WriterOptions{UserMeta: meta})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRow(datum.Row{datum.Int(999), datum.Int(9), datum.Float(9)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAcidDeltaSpanningBatches: one delta file holding more records
// than one batch — whole-record updates with strings (direct and
// dictionary encoded) and NULLs, deletes, and an entry for another base
// file — merges into the base as the model says, in batch and in row
// mode.
func TestAcidDeltaSpanningBatches(t *testing.T) {
	const rows = 3000
	e, h := testEngine(t)
	mustExec(t, e, "CREATE TABLE a (id BIGINT, v DOUBLE, tag STRING) STORED AS ACID")
	var sb strings.Builder
	sb.WriteString("INSERT INTO a VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d.5, 't%d')", i, i, i%7)
	}
	mustExec(t, e, sb.String())
	desc, err := e.MS.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	files, err := h.baseFiles(desc)
	if err != nil || len(files) != 1 {
		t.Fatalf("base files %v, %v; want one", files, err)
	}
	base := uint64(files[0].fileID) << 32

	model := make([]datum.Row, rows)
	for i := range model {
		model[i] = datum.Row{datum.Int(int64(i)), datum.Float(float64(i) + 0.5), datum.String_(fmt.Sprintf("t%d", i%7))}
	}
	var delta []datum.Row
	for i := 0; i < 2400; i++ {
		rid := datum.Int(int64(base) + int64(i))
		switch {
		case i%3 == 2:
			continue
		case i%5 == 0:
			delta = append(delta, datum.Row{rid, datum.Int(opDelete), datum.Null, datum.Null, datum.Null})
			model[i] = nil
			continue
		case i%5 == 1:
			model[i] = datum.Row{datum.Int(int64(i)), datum.Null, datum.Null}
		default:
			tag := fmt.Sprintf("u%d", i) // unique early: direct stripes
			if i >= 1200 {
				tag = fmt.Sprintf("u%d", i%4) // then dictionary stripes
			}
			model[i] = datum.Row{datum.Int(int64(i)), datum.Float(float64(2 * i)), datum.String_(tag)}
		}
		delta = append(delta, append(datum.Row{rid, datum.Int(opUpsert)}, model[i]...))
	}
	// Another base file's record: left out of this file's overlay.
	other := datum.Int(int64(base+1<<32) + 5)
	delta = append(delta, datum.Row{other, datum.Int(opUpsert), datum.Int(-1), datum.Null, datum.String_("other")})
	if len(delta) <= 1+orcfile.DefaultBatchRows {
		t.Fatalf("delta of %d records fits one batch", len(delta))
	}
	fw, err := e.FS.Create(deltaDir(desc) + "/delta-000001-0001.orc")
	if err != nil {
		t.Fatal(err)
	}
	w, err := orcfile.NewWriter(fw, deltaSchema(desc), orcfile.WriterOptions{Compression: true, StripeRows: 700})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range delta {
		if err := w.WriteRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	var want []string
	for i, r := range model {
		if r != nil {
			want = append(want, append(r, datum.Int(int64(base)+int64(i))).String())
		}
	}
	slices.Sort(want)
	for _, rowScan := range []bool{false, true} {
		e.MR.DisableBatchScan = rowScan
		got, _, _ := runAcidScan(t, e, h, hive.ScanOptions{})
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("rowScan=%v: %d rows, want %d; first difference %q",
				rowScan, len(got), len(want), firstDiff(got, want))
		}
	}
}

func firstDiff(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return got[i] + " against " + want[i]
		}
	}
	return "at the end"
}
