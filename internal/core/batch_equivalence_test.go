package core

import (
	"fmt"
	"strings"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/hive"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/sqlparser"
)

// scanResult captures everything the equivalence contract covers:
// output rows (rendered), job counters and simulated seconds.
type scanResult struct {
	rows    []string
	counts  mapred.Counters
	simSecs float64
}

// runUnionScan executes one identity map-only job over a table's
// UNION READ splits under the given parallelism and scan mode.
func runUnionScan(t *testing.T, e *hive.Engine, h *Handler, table string, opts ScanOptions, workers int, disableBatch bool) scanResult {
	t.Helper()
	desc, err := e.MS.Get(table)
	if err != nil {
		t.Fatal(err)
	}
	splits, release, err := h.Splits(desc, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	mr := mapred.NewCluster(e.MR.Params)
	mr.Parallelism = workers
	mr.DisableBatchScan = disableBatch
	job := &mapred.Job{
		Name:   "equivalence-scan",
		Splits: splits,
		NewMapper: func() mapred.Mapper {
			return mapred.MapFunc(func(row datum.Row, meta mapred.RecordMeta, emit mapred.Emitter) error {
				out := row.Clone()
				out = append(out, datum.Int(int64(meta.RecordID)))
				return emit(nil, out)
			})
		},
	}
	res, err := mr.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	out := scanResult{counts: res.Counters, simSecs: res.SimSeconds}
	for _, r := range res.Rows {
		out.rows = append(out.rows, r.String())
	}
	return out
}

// assertSameScan compares two scan results byte for byte.
func assertSameScan(t *testing.T, label string, want, got scanResult) {
	t.Helper()
	if len(want.rows) != len(got.rows) {
		t.Fatalf("%s: row count %d != %d", label, len(got.rows), len(want.rows))
	}
	for i := range want.rows {
		if want.rows[i] != got.rows[i] {
			t.Fatalf("%s: row %d:\n got %q\nwant %q", label, i, got.rows[i], want.rows[i])
		}
	}
	if want.counts != got.counts {
		t.Fatalf("%s: counters %+v != %+v", label, got.counts, want.counts)
	}
	if want.simSecs != got.simSecs {
		t.Fatalf("%s: sim seconds %v != %v", label, got.simSecs, want.simSecs)
	}
}

// TestBatchRowScanEquivalence checks that the vectorized batch scan
// and the row-at-a-time scan return byte-identical rows (including
// record IDs), Counters and SimSeconds over clean, updated and
// deleted-row tables — master files are flate-compressed by the
// DualTable writer — across 1 and N workers.
func TestBatchRowScanEquivalence(t *testing.T) {
	e, h := testEngine(t)
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "CREATE TABLE eq (id BIGINT, grp BIGINT, v DOUBLE, tag STRING) STORED AS DUALTABLE")
	// Two master files so per-file classification matters.
	for f := 0; f < 2; f++ {
		var sb strings.Builder
		sb.WriteString("INSERT INTO eq VALUES ")
		for i := 0; i < 500; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			id := f*500 + i
			if id%97 == 0 {
				fmt.Fprintf(&sb, "(%d, %d, NULL, NULL)", id, id%10)
			} else {
				fmt.Fprintf(&sb, "(%d, %d, %d.25, 'tag%d')", id, id%10, id, id%3)
			}
		}
		mustExec(t, e, sb.String())
	}

	stages := []struct {
		name string
		sql  string
	}{
		{"clean", ""},
		{"updated", "UPDATE eq SET v = 9000.5, tag = 'dirty' WHERE grp = 3"},
		{"deleted", "DELETE FROM eq WHERE grp = 7"},
		{"updated-second-file", "UPDATE eq SET v = 1.5 WHERE id >= 700 AND id < 720"},
	}
	scans := []struct {
		name string
		opts ScanOptions
	}{
		{"full", ScanOptions{}},
		{"projected", ScanOptions{Projection: []int{0, 2}}},
		{"pushdown", ScanOptions{SArg: hive.ExtractSearchArg(
			mustWhere(t, "SELECT * FROM eq WHERE id >= 800"), "eq", mustSchema(t, e, "eq"))}},
	}
	for _, stage := range stages {
		if stage.sql != "" {
			mustExec(t, e, stage.sql)
		}
		for _, sc := range scans {
			ref := runUnionScan(t, e, h, "eq", sc.opts, 1, true)
			if len(ref.rows) == 0 {
				t.Fatalf("%s/%s: reference scan returned no rows", stage.name, sc.name)
			}
			for _, workers := range []int{1, 4} {
				for _, disable := range []bool{true, false} {
					label := fmt.Sprintf("%s/%s workers=%d batch=%v", stage.name, sc.name, workers, !disable)
					assertSameScan(t, label, ref, runUnionScan(t, e, h, "eq", sc.opts, workers, disable))
				}
			}
		}
	}
}

// TestBatchRowSQLEquivalence runs full SQL statements (aggregation and
// filter+project, the two mapper kinds) on batch and row paths across 1
// and 4 workers and compares results and simulated seconds. Table w is
// one master file of three batches: the first has updated cells
// scattered into its vectors, the second carries a selection that
// leaves out a deleted record, the third stays clean — so each WHERE
// shape is evaluated over whole and selected batches within one task.
func TestBatchRowSQLEquivalence(t *testing.T) {
	e, h := testEngine(t)
	forcePlan(e, h, "EDIT")
	seedDual(t, e)
	mustExec(t, e, "UPDATE m SET v = 0.5 WHERE day < 3")
	mustExec(t, e, "DELETE FROM m WHERE day = 9")
	mustExec(t, e, "CREATE TABLE w (id BIGINT, k BIGINT, v DOUBLE, tag STRING, pad STRING) STORED AS DUALTABLE")
	var sb strings.Builder
	sb.WriteString("INSERT INTO w VALUES ")
	for i := 0; i < 3000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		if i%41 == 0 {
			fmt.Fprintf(&sb, "(%d, NULL, NULL, NULL, 'p')", i)
		} else {
			fmt.Fprintf(&sb, "(%d, %d, %d.5, 't%d', 'p')", i, i%23-11, i%500, i%5)
		}
	}
	mustExec(t, e, sb.String())
	if wd, _ := e.MS.Get("w"); len(snapshotFiles(t, h, wd)) != 1 {
		t.Fatal("w must be one master file for the mid-scan shape flip")
	}
	mustExec(t, e, "UPDATE w SET v = -1.5, tag = 'u' WHERE id >= 100 AND id < 130")
	mustExec(t, e, "DELETE FROM w WHERE id = 1500")
	queries := []string{
		"SELECT COUNT(*), SUM(v), MIN(tag), MAX(id) FROM m",
		"SELECT day, COUNT(*), AVG(v) FROM m GROUP BY day ORDER BY day",
		"SELECT id, v FROM m WHERE id >= 100 AND id < 140 ORDER BY id",
		"SELECT tag, COUNT(DISTINCT day) FROM m GROUP BY tag ORDER BY tag",
		// col op lit per kind, literal on the left, int column vs float
		// literal, col-vs-col, arithmetic inside the comparison.
		"SELECT id, v FROM w WHERE k < 3 AND v >= 100.5 AND tag = 't2' ORDER BY id",
		"SELECT id FROM w WHERE 2990 <= id OR 0 > v ORDER BY id",
		"SELECT id FROM w WHERE k < 0.5 AND v > 490 ORDER BY id",
		"SELECT COUNT(*), SUM(v) FROM w WHERE k < v",
		"SELECT id FROM w WHERE id % 200 = 0 ORDER BY id",
		// OR/NOT, a NULL literal, columns that are NULL in some rows.
		"SELECT tag, COUNT(*) FROM w WHERE k > 9 OR NOT (tag = 't1') GROUP BY tag ORDER BY tag",
		"SELECT COUNT(*) FROM w WHERE k = NULL OR v < 1",
		"SELECT COUNT(*), COUNT(DISTINCT tag) FROM w WHERE NOT (k < 0) AND id < 2000",
		// Shapes with adaptors (the row closure at the survivors).
		"SELECT id FROM w WHERE tag LIKE 'u%' OR id IN (7, 1500, 2999) ORDER BY id",
		"SELECT id FROM w WHERE tag > 3 AND id < 50 ORDER BY id",
	}
	for _, q := range queries {
		var want *hive.ResultSet
		for _, workers := range []int{1, 4} {
			for _, disable := range []bool{true, false} {
				e.MR.Parallelism, e.MR.DisableBatchScan = workers, disable
				got, err := e.Execute(q)
				if err != nil {
					t.Fatalf("%s (workers=%d, rowScan=%v): %v", q, workers, disable, err)
				}
				if want == nil {
					if want = got; len(want.Rows) == 0 {
						t.Fatalf("%s: no rows", q)
					}
					continue
				}
				if len(want.Rows) != len(got.Rows) {
					t.Fatalf("%s (workers=%d, rowScan=%v): %d rows != %d rows", q, workers, disable, len(got.Rows), len(want.Rows))
				}
				for i := range want.Rows {
					if want.Rows[i].String() != got.Rows[i].String() {
						t.Fatalf("%s (workers=%d, rowScan=%v) row %d: %s != %s", q, workers, disable, i, got.Rows[i], want.Rows[i])
					}
				}
				if want.SimSeconds != got.SimSeconds {
					t.Fatalf("%s (workers=%d, rowScan=%v): sim seconds %v != %v", q, workers, disable, got.SimSeconds, want.SimSeconds)
				}
			}
		}
	}
	e.MR.DisableBatchScan = false
}

// mustWhere extracts the WHERE expression of a SELECT text.
func mustWhere(t *testing.T, sql string) sqlparser.Expr {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := stmt.(*sqlparser.SelectStmt)
	if !ok || sel.Where == nil {
		t.Fatalf("not a SELECT with WHERE: %s", sql)
	}
	return sel.Where
}

func mustSchema(t *testing.T, e *hive.Engine, table string) datum.Schema {
	t.Helper()
	desc, err := e.MS.Get(table)
	if err != nil {
		t.Fatal(err)
	}
	return desc.Schema
}

// TestUnionReadOneDirtyBatch: one master batch holds a delete, an
// update and an attached value its vector's kind cannot hold. The
// reader serves it as one batch — the delete left out of the selection,
// the misfit turning its column mixed — and batch and row scans agree
// on rows, Counters and SimSeconds, for the raw scan and for SQL whose
// WHERE reads the mixed column.
func TestUnionReadOneDirtyBatch(t *testing.T) {
	e, h := testEngine(t)
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "CREATE TABLE ob (id BIGINT, grp BIGINT, v DOUBLE, tag STRING) STORED AS DUALTABLE")
	var sb strings.Builder
	sb.WriteString("INSERT INTO ob VALUES ")
	for i := 0; i < 300; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d.25, 't%d')", i, i%10, i, i%3)
	}
	mustExec(t, e, sb.String())
	desc, _ := e.MS.Get("ob")
	files := snapshotFiles(t, h, desc)
	if len(files) != 1 {
		t.Fatalf("%d master files, want 1", len(files))
	}
	// SQL coerces what it writes, so the misfit goes in as a raw cell; the
	// DML after it publishes a watermark above it.
	att, err := h.attached(desc)
	if err != nil {
		t.Fatal(err)
	}
	misfit := NewRecordID(files[0].fileID, 50)
	if err := att.Put([]*kvstore.Cell{{Row: misfit.Key(), Family: attachedFamily, Qualifier: []byte("1"),
		Type: kvstore.TypePut, Value: datum.AppendDatum(nil, datum.String_("misfit"))}}, nil); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "DELETE FROM ob WHERE id = 10")
	mustExec(t, e, "UPDATE ob SET v = 0.5 WHERE id = 20")

	splits, release, err := h.Splits(desc, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := splits[0].Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	var b mapred.RecordBatch
	if err := rr.(mapred.BatchRecordReader).NextBatch(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len != 300 || b.Live() != 299 || b.Sel[10] != 11 || len(b.Cols[1].Datums) == 0 {
		t.Fatalf("dirty batch: %d slots, %d live, mixed grp %v", b.Len, b.Live(), len(b.Cols[1].Datums) > 0)
	}
	if got := b.RowInto(nil, 50)[1]; got.S != "misfit" {
		t.Fatalf("slot 50 grp = %v, want the misfit", got)
	}
	rr.Close()
	release()

	for _, opts := range []ScanOptions{{}, {Projection: []int{0, 1}}} {
		ref := runUnionScan(t, e, h, "ob", opts, 1, true)
		if len(ref.rows) != 299 {
			t.Fatalf("proj=%v: %d rows, want 299", opts.Projection, len(ref.rows))
		}
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("proj=%v workers=%d", opts.Projection, workers)
			assertSameScan(t, label, ref, runUnionScan(t, e, h, "ob", opts, workers, false))
		}
	}
	for _, q := range []string{
		"SELECT id, grp, v FROM ob WHERE grp = 'misfit' OR id < 25 ORDER BY id",
		"SELECT COUNT(*), SUM(v), MIN(grp), MAX(grp) FROM ob",
		"SELECT grp, COUNT(*) FROM ob WHERE v < 60 GROUP BY grp ORDER BY grp",
	} {
		var want *hive.ResultSet
		for _, disable := range []bool{true, false} {
			e.MR.DisableBatchScan = disable
			got := mustExec(t, e, q)
			if want == nil {
				want = got
				continue
			}
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) || got.SimSeconds != want.SimSeconds {
				t.Fatalf("%s: batch %v (%v s), row %v (%v s)", q, got.Rows, got.SimSeconds, want.Rows, want.SimSeconds)
			}
		}
		if q == "SELECT id, grp, v FROM ob WHERE grp = 'misfit' OR id < 25 ORDER BY id" &&
			(len(want.Rows) != 25 || want.Rows[10][0].I != 11 || want.Rows[24][1].S != "misfit") {
			t.Fatalf("%s: %v", q, want.Rows)
		}
	}
	e.MR.DisableBatchScan = false
}

// TestDMLSkipsDeletedSlots: a record deleted earlier still sits in its
// master batch, left out of the selection. A later UPDATE whose WHERE is
// true for it — evaluated per row, or absent — must not reach the sink
// with it: the affected count excludes it, in batch and row scans alike.
func TestDMLSkipsDeletedSlots(t *testing.T) {
	for _, disable := range []bool{false, true} {
		e, h := testEngine(t)
		forcePlan(e, h, "EDIT")
		e.MR.DisableBatchScan = disable
		seedDual(t, e)
		mustExec(t, e, "DELETE FROM m WHERE id = 2")
		for _, tc := range []struct {
			sql  string
			want int64
		}{
			{"UPDATE m SET v = 1.0 WHERE tag LIKE 'tag%' AND id < 5", 4}, // LIKE: an adaptor conjunct
			{"UPDATE m SET v = 2.0", 359},                                // no WHERE
			{"DELETE FROM m WHERE id IN (1, 2, 3)", 2},                   // IN: an adaptor conjunct
		} {
			if rs := mustExec(t, e, tc.sql); rs.Affected != tc.want {
				t.Errorf("rowScan=%v %s: %d affected, want %d", disable, tc.sql, rs.Affected, tc.want)
			}
		}
		if rs := mustExec(t, e, "SELECT COUNT(*), SUM(v) FROM m"); rs.Rows[0][0].I != 357 || rs.Rows[0][1].F != 714 {
			t.Errorf("rowScan=%v: table holds %v, want 357 rows summing to 714", disable, rs.Rows[0])
		}
	}
}
