package dualtable_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"dualtable"
)

// The SELECT differential: after a DML history the five holders of
// dml_differential_test.go hold the same rows, so every SELECT shape
// must answer the same on all of them — UNION READ over master +
// attached ≡ a rewritten table (§III-C, §V-B) — whatever the scan mode
// or worker count, streamed or collected.

// selectShape is one SELECT of the differential; %[1]s is the holder.
type selectShape struct {
	sql string
	// ordered: the ORDER BY is total, so results compare as lists;
	// otherwise as multisets.
	ordered bool
}

var selectShapes = []selectShape{
	// Filter + project.
	{sql: "SELECT * FROM %[1]s"},
	{sql: "SELECT * FROM %[1]s ORDER BY id LIMIT 10", ordered: true},
	{sql: "SELECT id, v * 2 + k, CASE WHEN k < 3 THEN 'lo' WHEN k < 7 THEN 'mid' ELSE 'hi' END FROM %[1]s WHERE (v - id) * 4 = 1 OR k %% 3 = 0"},
	{sql: "SELECT id, tag FROM %[1]s WHERE tag LIKE 't1%%' OR k IN (3, 7)"},
	// Projections whose values do not share a kind: a mixed result column.
	{sql: "SELECT id, CASE WHEN k < 3 THEN id WHEN k < 7 THEN tag ELSE v END, COALESCE(k, tag) FROM %[1]s WHERE id %% 3 = 0"},
	{sql: "SELECT id FROM %[1]s WHERE v > (SELECT AVG(x) FROM diff_ref) ORDER BY id LIMIT 5", ordered: true},
	// GROUP BY column and expression, HAVING, aggregates in ORDER BY.
	{sql: "SELECT k, COUNT(*), SUM(v), MIN(tag), MAX(id), AVG(v) FROM %[1]s GROUP BY k"},
	{sql: "SELECT id %% 4, CASE WHEN v > 1000 THEN 1 ELSE 0 END, COUNT(*), SUM(k) FROM %[1]s GROUP BY id %% 4, CASE WHEN v > 1000 THEN 1 ELSE 0 END"},
	{sql: "SELECT k + 1, SUM(v) / COUNT(*), MAX(id) - MIN(id) FROM %[1]s GROUP BY k + 1"},
	{sql: "SELECT k, COUNT(*) AS n FROM %[1]s GROUP BY k HAVING COUNT(*) > 100 AND k IS NOT NULL"},
	{sql: "SELECT tag, SUM(v) FROM %[1]s GROUP BY tag ORDER BY SUM(v) DESC, tag", ordered: true},
	{sql: "SELECT k, COUNT(*) FROM %[1]s GROUP BY k ORDER BY MAX(id) DESC", ordered: true},
	{sql: "SELECT tag, COUNT(*) AS n, SUM(v) AS total FROM %[1]s GROUP BY tag HAVING SUM(v) > 1000 ORDER BY n DESC, tag LIMIT 3", ordered: true},
	// An alias that shadows a group key: ORDER BY sorts by the alias.
	{sql: "SELECT 0 - k AS k, COUNT(*) FROM %[1]s WHERE k IS NOT NULL GROUP BY k ORDER BY k", ordered: true},
	{sql: "SELECT k, SUM(v) FROM %[1]s WHERE id < 0 GROUP BY k"},
	// ORDER BY alias / hidden key / DESC, with and without LIMIT.
	{sql: "SELECT id, v AS score FROM %[1]s WHERE k = 4 ORDER BY score DESC, id", ordered: true},
	{sql: "SELECT tag FROM %[1]s WHERE id < 300 ORDER BY v DESC, id", ordered: true},
	{sql: "SELECT id, k FROM %[1]s ORDER BY k DESC, id DESC LIMIT 25", ordered: true},
	{sql: "SELECT id, k FROM %[1]s WHERE id %% 3 = 0 ORDER BY k DESC, id", ordered: true},
	{sql: "SELECT id, k * 2 AS kk FROM %[1]s ORDER BY kk, 0 - v, id LIMIT 40", ordered: true},
	// DISTINCT, and DISTINCT aggregates beside plain ones.
	{sql: "SELECT DISTINCT k, tag FROM %[1]s"},
	{sql: "SELECT DISTINCT tag FROM %[1]s ORDER BY tag LIMIT 3", ordered: true},
	{sql: "SELECT DISTINCT k FROM %[1]s WHERE id %% 2 = 1 ORDER BY k DESC", ordered: true},
	{sql: "SELECT k, COUNT(DISTINCT tag), COUNT(*), SUM(v), MIN(v), AVG(id) FROM %[1]s GROUP BY k"},
	{sql: "SELECT COUNT(DISTINCT k), SUM(DISTINCT k), AVG(v), MAX(tag) FROM %[1]s"},
	{sql: "SELECT tag, COUNT(DISTINCT k) AS dk FROM %[1]s GROUP BY tag HAVING COUNT(DISTINCT k) > 1 ORDER BY dk DESC, tag", ordered: true},
	// Global aggregates over an empty match.
	{sql: "SELECT COUNT(*), SUM(v), MIN(id), MAX(tag), AVG(k) FROM %[1]s WHERE id < 0", ordered: true},
	{sql: "SELECT COUNT(DISTINCT k), SUM(v), COUNT(*) FROM %[1]s WHERE id < 0", ordered: true},
	// Joins with a residual ON, in both key orders.
	{sql: "SELECT t.id, d.name, t.v + d.w FROM %[1]s t JOIN diff_dim d ON t.k = d.k AND t.v > d.w WHERE t.id %% 5 = 0"},
	{sql: "SELECT t.id, d.name FROM %[1]s t LEFT OUTER JOIN diff_dim d ON t.k = d.k AND d.w < 3 WHERE t.id < 200"},
	{sql: "SELECT d.k, d.name, COUNT(t.id) FROM %[1]s t RIGHT OUTER JOIN diff_dim d ON d.k = t.k AND t.id %% 2 = 0 GROUP BY d.k, d.name"},
	{sql: "SELECT COUNT(*), COUNT(t.id), COUNT(d.k) FROM %[1]s t FULL OUTER JOIN diff_dim d ON t.k = d.k AND t.tag = d.name", ordered: true},
	{sql: "SELECT COUNT(*), SUM(t.k * d.k) FROM %[1]s t CROSS JOIN diff_dim d WHERE t.id < 50", ordered: true},
	{sql: "SELECT t.id, d.name FROM %[1]s t JOIN diff_dim d ON t.k + 1 = d.k ORDER BY t.id DESC, d.name LIMIT 12", ordered: true},
	// Where the planner may and may not push below a join: WHERE over one
	// input, over both, the anti-join idiom on a null-supplying side, an
	// ON conjunct over the preserved side, a scalar subquery, a three-way
	// join with a conjunct per table, a derived-table input, t.*.
	{sql: "SELECT t.id, d.name FROM %[1]s t JOIN diff_dim d ON t.k = d.k WHERE d.w > 2"},
	{sql: "SELECT t.id, d.name FROM %[1]s t LEFT OUTER JOIN diff_dim d ON t.k = d.k WHERE t.v > 1000 AND d.w > 2 AND t.v > d.w"},
	{sql: "SELECT t.id, t.k FROM %[1]s t LEFT OUTER JOIN diff_dim d ON t.k = d.k WHERE d.k IS NULL"},
	{sql: "SELECT d.name, d.w FROM %[1]s t RIGHT OUTER JOIN diff_dim d ON t.k = d.k AND t.tag LIKE 'u%%' WHERE t.id IS NULL"},
	{sql: "SELECT t.id, d.name FROM %[1]s t LEFT OUTER JOIN diff_dim d ON t.k = d.k AND t.id %% 2 = 0 WHERE t.id < 120"},
	{sql: "SELECT t.id, d.name FROM %[1]s t FULL OUTER JOIN diff_dim d ON t.k = d.k AND d.w < 3 WHERE t.id < 100 OR t.id IS NULL"},
	{sql: "SELECT t.id, d.w FROM %[1]s t JOIN diff_dim d ON t.k = d.k WHERE t.v > (SELECT AVG(x) FROM diff_ref) AND d.w < 5"},
	{sql: "SELECT t.id, d.name, e.name FROM %[1]s t JOIN diff_dim d ON t.k = d.k LEFT OUTER JOIN diff_dim e ON d.k + 1 = e.k WHERE t.id < 300 AND d.w > 1 AND e.w < 5"},
	{sql: "SELECT t.id, s.n FROM %[1]s t JOIN (SELECT k, COUNT(*) AS n FROM diff_dim GROUP BY k) s ON t.k = s.k WHERE s.n > 1 AND t.id < 500"},
	{sql: "SELECT t.*, d.name FROM %[1]s t JOIN diff_dim d ON t.k = d.k WHERE t.id < 40"},
	// FROM-subquery over a join, and over an aggregation.
	{sql: "SELECT s.name, COUNT(*), SUM(s.v) FROM (SELECT d.name, t.v FROM %[1]s t JOIN diff_dim d ON t.k = d.k WHERE t.v IS NOT NULL) s GROUP BY s.name ORDER BY s.name", ordered: true},
	{sql: "SELECT g.k, g.n FROM (SELECT k, COUNT(*) AS n FROM %[1]s GROUP BY k) g WHERE g.n > 150"},
	// LIMIT 0.
	{sql: "SELECT id, tag FROM %[1]s WHERE k = 2 LIMIT 0", ordered: true},
	{sql: "SELECT id FROM %[1]s ORDER BY id LIMIT 0", ordered: true},
	{sql: "SELECT k, COUNT(*) FROM %[1]s GROUP BY k LIMIT 0", ordered: true},
	{sql: "SELECT t.id, d.name FROM %[1]s t JOIN diff_dim d ON t.k = d.k LIMIT 0", ordered: true},
	{sql: "SELECT 1, '%[1]s' LIMIT 0", ordered: true},
}

// asOfShapes run on the DUALTABLE holders only, against the epoch the
// history had reached when the reference contents were captured; every
// other storage must reject them.
var asOfShapes = []selectShape{
	{sql: "SELECT id, k, v, tag FROM %[1]s AS OF EPOCH %[2]d ORDER BY id", ordered: true},
	{sql: "SELECT k, COUNT(*), SUM(v) FROM %[1]s AS OF EPOCH %[2]d GROUP BY k"},
	{sql: asOfJoin},
}

// asOfJoin reads one join input at a historical epoch; readEpochJoin is
// the same join under SET read.epoch (which the ORC dimension table
// ignores) and must answer the same.
const (
	asOfJoin      = "SELECT t.id, t.tag, d.name FROM %[1]s t AS OF EPOCH %[2]d JOIN diff_dim d ON t.k = d.k WHERE t.v > 4 AND d.w < 5"
	readEpochJoin = "SELECT t.id, t.tag, d.name FROM %[1]s t JOIN diff_dim d ON t.k = d.k WHERE t.v > 4 AND d.w < 5"
)

// selectTrace is what one configuration of the matrix observed.
type selectTrace struct {
	rows map[string][]string // "table|sql" -> rendered Exec rows
	sims map[string]uint64   // "table|sql" -> exact SimSeconds bits
}

// runSelectDifferential applies the first ten statements of the DML
// history (everything before the UPDATE without WHERE flattens tag),
// then runs every shape on every holder through Exec and Query.
func runSelectDifferential(t *testing.T, workers int, rowScan bool) selectTrace {
	db, sessions := openDiffHolders(t, workers, rowScan)
	db.MustExec("CREATE TABLE diff_dim (k BIGINT, name STRING, w DOUBLE) STORED AS ORC")
	db.MustExec("INSERT INTO diff_dim VALUES (0, 't0', 0.5), (1, 't1', 1.5), (2, 't2', 2.5), (3, 't3', 3.5)," +
		" (4, 't4', 4.5), (4, 'four', 400.0), (7, 'hot', 7.5), (12, 'none', 12.5), (NULL, 'null', 0.0)")

	const asOfAfter = 4 // capture the reference epoch after this statement
	asOfEpoch := map[string]uint64{}
	var asOfRows []string
	for si, st := range diffHistory(15)[:10] {
		for i, tb := range diffTables {
			if _, err := sessions[i].Exec(st.sql(tb.name)); err != nil {
				t.Fatalf("%s: %v", st.sql(tb.name), err)
			}
		}
		if si != asOfAfter {
			continue
		}
		asOfRows = renderRows(db.MustExec("SELECT id, k, v, tag FROM d_edit ORDER BY id"))
		for _, tb := range diffTables {
			if tb.storage != "DUALTABLE" {
				continue
			}
			desc, err := db.Engine.MS.Get(tb.name)
			if err != nil {
				t.Fatal(err)
			}
			if asOfEpoch[tb.name], err = db.Handler.CurrentEpoch(desc); err != nil {
				t.Fatal(err)
			}
		}
	}

	tr := selectTrace{rows: map[string][]string{}, sims: map[string]uint64{}}
	checkPins := func(tb, q string) {
		if tb != "d_edit" && tb != "d_over" {
			return // only DUALTABLE scans pin files
		}
		if pins := tablePins(t, db, tb); pins != 0 {
			t.Fatalf("%s: %d pins left on %s", q, pins, tb)
		}
	}
	// run executes q collected and streamed, checks they agree and that
	// the pins drained, and records the collected result.
	run := func(sess *dualtable.Session, tb string, sh selectShape, q string) []string {
		rs, err := sess.Exec(q)
		if err != nil {
			t.Fatalf("Exec(%s): %v", q, err)
		}
		checkPins(tb, q)
		got := renderRows(rs)
		rows, err := sess.Query(q)
		if err != nil {
			t.Fatalf("Query(%s): %v", q, err)
		}
		var streamed []string
		for rows.Next() {
			streamed = append(streamed, rows.Row().String())
		}
		if err := rows.Close(); err != nil || rows.Err() != nil {
			t.Fatalf("Query(%s): close %v, err %v", q, err, rows.Err())
		}
		checkPins(tb, q)
		if !sameRows(streamed, got, sh.ordered) {
			t.Errorf("workers=%d rowScan=%v %s: Query returned %d rows, Exec %d, or they differ", workers, rowScan, q, len(streamed), len(got))
		}
		key := tb + "|" + sh.sql
		tr.rows[key] = got
		tr.sims[key] = math.Float64bits(rs.SimSeconds)
		return got
	}
	for _, sh := range selectShapes {
		var want []string
		for i, tb := range diffTables {
			got := run(sessions[i], tb.name, sh, fmt.Sprintf(sh.sql, tb.name))
			if i == 0 {
				want = got
			} else if !sameRows(got, want, sh.ordered) {
				t.Errorf("workers=%d rowScan=%v %s: %s returned %d rows that differ from %s's %d",
					workers, rowScan, sh.sql, tb.name, len(got), diffTables[0].name, len(want))
			}
		}
	}
	wantAsOf := map[string][]string{asOfShapes[0].sql: asOfRows}
	for _, sh := range asOfShapes {
		for i, tb := range diffTables {
			if tb.storage != "DUALTABLE" {
				q := fmt.Sprintf(sh.sql, tb.name, 1)
				if _, err := sessions[i].Exec(q); err == nil || !strings.Contains(err.Error(), "does not support time travel") {
					t.Errorf("%s: got %v, want a time-travel rejection", q, err)
				}
				continue
			}
			got := run(sessions[i], tb.name, sh, fmt.Sprintf(sh.sql, tb.name, asOfEpoch[tb.name]))
			if want, ok := wantAsOf[sh.sql]; !ok {
				wantAsOf[sh.sql] = got
			} else if !sameRows(got, want, sh.ordered) {
				t.Errorf("workers=%d rowScan=%v %s on %s: %d rows differ from the %d captured at that epoch",
					workers, rowScan, sh.sql, tb.name, len(got), len(want))
			}
			if sh.sql != asOfJoin {
				continue
			}
			sessions[i].SetReadEpoch(asOfEpoch[tb.name])
			pinned := run(sessions[i], tb.name, selectShape{sql: readEpochJoin}, fmt.Sprintf(readEpochJoin, tb.name))
			sessions[i].ClearReadEpoch()
			if len(got) == 0 || !sameRows(pinned, got, false) {
				t.Errorf("workers=%d rowScan=%v %s: %d rows under SET read.epoch, %d with AS OF EPOCH",
					workers, rowScan, tb.name, len(pinned), len(got))
			}
		}
	}
	return tr
}

// sameRows compares two rendered results as lists or as multisets.
func sameRows(a, b []string, ordered bool) bool {
	if !ordered {
		a, b = slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))
	}
	return slices.Equal(a, b)
}

// TestSelectDifferentialAcrossStorages: identical rows on every holder
// (inside runSelectDifferential), and per holder the collected rows and
// the exact SimSeconds do not depend on scan mode or worker count.
func TestSelectDifferentialAcrossStorages(t *testing.T) {
	var ref selectTrace
	for _, workers := range []int{1, 4} {
		for _, rowScan := range []bool{false, true} {
			tr := runSelectDifferential(t, workers, rowScan)
			if ref.rows == nil {
				ref = tr
				continue
			}
			if len(tr.rows) != len(ref.rows) {
				t.Fatalf("workers=%d rowScan=%v: %d results, reference %d", workers, rowScan, len(tr.rows), len(ref.rows))
			}
			for key, want := range ref.rows {
				if !slices.Equal(tr.rows[key], want) {
					t.Errorf("workers=%d rowScan=%v %s: rows differ from the 1-worker batch run", workers, rowScan, key)
				}
				if tr.sims[key] != ref.sims[key] {
					t.Errorf("workers=%d rowScan=%v %s: SimSeconds %v, 1-worker batch run %v", workers, rowScan, key,
						math.Float64frombits(tr.sims[key]), math.Float64frombits(ref.sims[key]))
				}
			}
		}
	}
}
