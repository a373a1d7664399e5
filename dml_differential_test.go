package dualtable_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dualtable"
)

// The DML differential: one history of UPDATE/DELETE statements applied
// to the same rows held five ways must leave identical contents — the
// paper's core claim (EDIT through UNION READ ≡ rewrite) and the
// baselines' (HBase puts, ACID deltas) as one property — and the whole
// trace must not depend on the scan mode or the worker count.

// diffTables are the five holders of the same logical table.
var diffTables = []struct{ name, storage, force, plan string }{
	{"d_edit", "DUALTABLE", "EDIT", "EDIT"},
	{"d_over", "DUALTABLE", "OVERWRITE", "OVERWRITE"},
	{"d_kv", "HBASE", "", "EDIT-UDF"},
	{"d_acid", "ACID", "", "DELTA"},
	{"d_orc", "ORC", "", "OVERWRITE-REWRITE"},
}

// diffStmt is one statement of the history; set == "" is a DELETE.
type diffStmt struct {
	set, where string
	// noop: every SET assigns the value the cell already has, so EDIT
	// elides every write. Elsewhere each matched record really changes
	// and EDIT's count equals the matched count.
	noop bool
}

func (s diffStmt) sql(table string) string {
	q := "DELETE FROM " + table
	if s.set != "" {
		q = "UPDATE " + table + " SET " + s.set
	}
	if s.where != "" {
		q += " WHERE " + s.where
	}
	return q
}

// diffHistory builds the statement history; the seed picks its
// constants. The first DELETE comes early so that every later statement
// scans UNION READ batches whose selection leaves out a deleted record
// next to batches with every record live.
func diffHistory(seed int64) []diffStmt {
	r := rand.New(rand.NewSource(seed))
	lo := 100 + r.Intn(200)
	return []diffStmt{
		// Vectorisable WHERE shapes.
		{set: "tag = 'u1'", where: fmt.Sprintf("k < %d", 2+r.Intn(3))},                     // col op lit, literal SET
		{where: fmt.Sprintf("id %% 7 = %d", r.Intn(7))},                                    // arithmetic inside a compare
		{set: "v = k * 2 + 0.5", where: "k < v"},                                           // col vs col, other-column SET
		{set: "v = v", where: fmt.Sprintf("id >= %d AND id < %d", lo, lo+300), noop: true}, // no-op writes
		{set: "tag = 'u5', k = k + 1", where: "(v > 500 OR tag = 'u1') AND NOT (k = 2)"},   // AND/OR/NOT over NULLs
		{set: "v = 1.5", where: "k = NULL"},                                                // never TRUE
		// Shapes with adaptor conjuncts (the row closure at the survivors).
		{set: "tag = NULL", where: "tag LIKE 't1%'"},                       // SET NULL (KV DeleteColumn)
		{set: "v = 7", where: "k IN (1, 3, 5) AND id < 1000"},              // int literal into DOUBLE
		{where: "v > (SELECT AVG(x) FROM diff_ref)"},                       // scalar subquery
		{set: "v = id", where: "v IS NULL"},                                // BIGINT column into DOUBLE
		{set: "tag = 'all'"},                                               // no WHERE
		{where: fmt.Sprintf("tag = 'all' AND id >= %d", 1200+r.Intn(400))}, // vectorised over rewritten data
		{}, // DELETE without WHERE
	}
}

func openDiffDB(t *testing.T, workers int, rowScan bool) *dualtable.DB {
	t.Helper()
	cfg := dualtable.DefaultConfig()
	cfg.Parallelism = workers
	db, err := dualtable.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.MR.DisableBatchScan = rowScan
	return db
}

// loadDiffTable creates one holder and loads the shared rows: three
// inserts (three master or base files, so several map tasks) with NULLs
// in every nullable column.
func loadDiffTable(db *dualtable.DB, name, storage string) {
	db.MustExec(fmt.Sprintf("CREATE TABLE %s (id BIGINT, k BIGINT, v DOUBLE, tag STRING) STORED AS %s", name, storage))
	for f := 0; f < 3; f++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", name)
		for i := 0; i < 700; i++ {
			id := f*700 + i
			k, v, tag := fmt.Sprint(id%10), fmt.Sprintf("%d.25", id), fmt.Sprintf("'t%d'", id%5)
			if id%53 == 0 {
				k = "NULL"
			}
			if id%97 == 0 {
				v = "NULL"
			}
			if id%89 == 0 {
				tag = "NULL"
			}
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %s, %s, %s)", id, k, v, tag)
		}
		db.MustExec(sb.String())
	}
}

// renderRows renders a result for byte comparison.
func renderRows(rs *dualtable.ResultSet) []string {
	out := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		out[i] = r.String()
	}
	return out
}

// openDiffHolders opens a fresh database holding the five tables, the
// scalar-subquery side table, and one session per holder with its plan
// forced; the sessions close with the test.
func openDiffHolders(t *testing.T, workers int, rowScan bool) (*dualtable.DB, []*dualtable.Session) {
	db := openDiffDB(t, workers, rowScan)
	db.MustExec("CREATE TABLE diff_ref (x DOUBLE) STORED AS ORC")
	db.MustExec("INSERT INTO diff_ref VALUES (1700.0), (1900.0)")
	sessions := make([]*dualtable.Session, len(diffTables))
	for i, tb := range diffTables {
		loadDiffTable(db, tb.name, tb.storage)
		sessions[i] = db.Session()
		t.Cleanup(func() { sessions[i].Close() })
		if tb.force != "" {
			sessions[i].SetForcePlan(tb.force)
		}
	}
	return db, sessions
}

// runDiffHistory applies the history to all five holders on a fresh
// database and returns the trace the matrix compares: per statement and
// holder the plan, Affected (the DML job's OutputRecords counter) and
// the exact SimSeconds bits (which fold the job's input-record counter
// in), then the table contents.
func runDiffHistory(t *testing.T, workers int, rowScan bool) []string {
	db, sessions := openDiffHolders(t, workers, rowScan)
	var trace []string
	for si, st := range diffHistory(15) {
		// The matched count through the SELECT path, before anything
		// changes.
		countSQL := "SELECT COUNT(*) FROM d_orc"
		if st.where != "" {
			countSQL += " WHERE " + st.where
		}
		matched := db.MustExec(countSQL).Rows[0][0].I
		affected := map[string]int64{}
		var want []string
		for i, tb := range diffTables {
			q := st.sql(tb.name)
			rs, err := sessions[i].Exec(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if rs.Plan != tb.plan {
				t.Fatalf("%s: plan %q, want %q", q, rs.Plan, tb.plan)
			}
			affected[tb.name] = rs.Affected
			trace = append(trace, fmt.Sprintf("%d %s %s affected=%d sim=%x", si, tb.name, rs.Plan, rs.Affected, math.Float64bits(rs.SimSeconds)))
			got := renderRows(db.MustExec("SELECT id, k, v, tag FROM " + tb.name + " ORDER BY id"))
			if i == 0 {
				want = got
				trace = append(trace, got...)
			} else if !slices.Equal(got, want) {
				t.Fatalf("after %s: %s holds %d rows that differ from %s's %d", q, tb.name, len(got), diffTables[0].name, len(want))
			}
		}
		q := st.sql("<t>")
		// The native paths count matched records.
		if affected["d_kv"] != matched || affected["d_acid"] != matched {
			t.Errorf("%s: KV affected %d, ACID %d, want the %d matched records", q, affected["d_kv"], affected["d_acid"], matched)
		}
		// EDIT counts changed records: it elides no-op writes.
		if st.noop {
			if matched == 0 || affected["d_edit"] != 0 {
				t.Errorf("%s: EDIT affected %d of %d matched records, want 0 (no-op writes are elided)", q, affected["d_edit"], matched)
			}
		} else if affected["d_edit"] != matched {
			t.Errorf("%s: EDIT affected %d, want the %d matched records", q, affected["d_edit"], matched)
		}
		// Both rewrites count the rows they wrote back.
		if n := int64(len(want)); affected["d_over"] != n || affected["d_orc"] != n {
			t.Errorf("%s: OVERWRITE affected %d, ORC rewrite %d, want the %d rows written", q, affected["d_over"], affected["d_orc"], n)
		}
	}
	return trace
}

func TestDMLDifferentialAcrossStorages(t *testing.T) {
	var ref []string
	for _, workers := range []int{1, 4} {
		for _, rowScan := range []bool{false, true} {
			trace := runDiffHistory(t, workers, rowScan)
			if ref == nil {
				ref = trace
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

// TestDuplicateSetTargetRejected: assigning one column twice fails the
// same way whichever plan or storage would have run it.
func TestDuplicateSetTargetRejected(t *testing.T) {
	db := openDiffDB(t, 2, false)
	for _, tb := range diffTables {
		db.MustExec(fmt.Sprintf("CREATE TABLE %s (id BIGINT, v DOUBLE) STORED AS %s", tb.name, tb.storage))
		db.MustExec(fmt.Sprintf("INSERT INTO %s VALUES (1, 1.0), (2, 2.0)", tb.name))
		sess := db.Session()
		if tb.force != "" {
			sess.SetForcePlan(tb.force)
		}
		_, err := sess.Exec(fmt.Sprintf("UPDATE %s SET v = 5, v = 7 WHERE id = 1", tb.name))
		if err == nil || !strings.Contains(err.Error(), `column "v" assigned twice`) {
			t.Errorf("%s (%s %s): duplicate SET target: got %v", tb.name, tb.storage, tb.force, err)
		}
		rs := sess.MustExec("SELECT v FROM " + tb.name + " WHERE id = 1")
		if len(rs.Rows) != 1 || rs.Rows[0][0].F != 1 {
			t.Errorf("%s: rejected UPDATE changed the row: %v", tb.name, rs.Rows)
		}
		sess.Close()
	}
}

// tablePins sums the DFS pins on a DualTable's current master files.
func tablePins(t *testing.T, db *dualtable.DB, table string) int {
	t.Helper()
	desc, err := db.Engine.MS.Get(table)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := db.Handler.OpenSnapshot(desc)
	if err != nil {
		t.Fatal(err)
	}
	files := snap.Files()
	snap.Release()
	pins := 0
	for _, p := range files {
		pins += db.FS.Pins(p)
	}
	return pins
}

// TestQueryMatchesExec: a streamable SELECT returns the same multiset
// of rows streamed (Session.Query) and collected (Session.Exec) — they
// run the same plan and mapper into different sinks — and every way of
// ending the stream gives the snapshot pins back.
func TestQueryMatchesExec(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, rowScan := range []bool{false, true} {
			db := openDiffDB(t, workers, rowScan)
			loadDiffTable(db, "q", "DUALTABLE")
			sess := db.Session()
			sess.SetForcePlan("EDIT")
			sess.MustExec("UPDATE q SET v = v * 2, tag = 'hot' WHERE k = 3")
			sess.MustExec("DELETE FROM q WHERE id % 11 = 0")
			stream := func(sql string, stopAfter int) []string {
				rows, err := sess.Query(sql)
				if err != nil {
					t.Fatalf("Query(%s): %v", sql, err)
				}
				var out []string
				for (stopAfter < 0 || len(out) < stopAfter) && rows.Next() {
					out = append(out, rows.Row().String())
				}
				if err := rows.Close(); err != nil || rows.Err() != nil {
					t.Fatalf("Query(%s): close %v, err %v", sql, err, rows.Err())
				}
				if pins := tablePins(t, db, "q"); pins != 0 {
					t.Fatalf("Query(%s), stopped after %d: %d pins left", sql, stopAfter, pins)
				}
				slices.Sort(out)
				return out
			}
			for _, sel := range []string{
				"SELECT * FROM q",
				"SELECT id, v * 2, tag FROM q WHERE k < 5 AND v > 100",
				"SELECT id, tag FROM q WHERE tag LIKE 't1%' OR k IN (3, 7)",
				"SELECT id FROM q WHERE k = NULL",
			} {
				full := renderRows(sess.MustExec(sel))
				slices.Sort(full)
				if got := stream(sel, -1); !slices.Equal(got, full) {
					t.Errorf("workers=%d rowScan=%v %s: Query returned %d rows, Exec %d, or they differ", workers, rowScan, sel, len(got), len(full))
				}
				// LIMIT may keep any n of the rows; LIMIT 0 keeps none.
				for _, limit := range []int{0, 10} {
					lsel := fmt.Sprintf("%s LIMIT %d", sel, limit)
					want := min(limit, len(full))
					got, exec := stream(lsel, -1), sess.MustExec(lsel).Rows
					if len(got) != want || len(exec) != want {
						t.Errorf("%s: Query returned %d rows, Exec %d, want %d", lsel, len(got), len(exec), want)
					}
					for _, r := range got {
						if _, ok := slices.BinarySearch(full, r); !ok {
							t.Errorf("%s: Query returned %s, not a row of the unlimited result", lsel, r)
						}
					}
				}
				// Early Close.
				if got := stream(sel, 3); len(got) != min(3, len(full)) {
					t.Errorf("%s: read %d rows before Close, want %d", sel, len(got), min(3, len(full)))
				}
			}
			sess.Close()
		}
	}
}
