package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"dualtable/internal/dfs"
	"dualtable/internal/hive"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

func testEngine(t testing.TB) (*hive.Engine, *Handler) {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 20})
	kv, err := kvstore.NewCluster(fs, "/hbase")
	if err != nil {
		t.Fatal(err)
	}
	mr := mapred.NewCluster(sim.GridCluster())
	mr.Parallelism = 4
	e, err := hive.NewEngine(hive.Config{FS: fs, KV: kv, MR: mr})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Register(e)
	if err != nil {
		t.Fatal(err)
	}
	return e, h
}

func mustExec(t testing.TB, e *hive.Engine, sql string) *hive.ResultSet {
	t.Helper()
	rs, err := e.Execute(sql)
	if err != nil {
		t.Fatalf("Execute(%s): %v", sql, err)
	}
	return rs
}

func seedDual(t *testing.T, e *hive.Engine) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE m (id BIGINT, day BIGINT, v DOUBLE, tag STRING) STORED AS DUALTABLE")
	var sb strings.Builder
	sb.WriteString("INSERT INTO m VALUES ")
	for i := 0; i < 360; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d.5, 'tag%d')", i, i%36, i, i%4)
	}
	mustExec(t, e, sb.String())
}

func TestRecordIDProperties(t *testing.T) {
	f := func(fileID, rowNum uint32) bool {
		id := NewRecordID(fileID, rowNum)
		if id.FileID() != fileID || id.RowNumber() != rowNum {
			return false
		}
		back, err := RecordIDFromKey(id.Key())
		return err == nil && back == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Key ordering matches numeric ordering.
	ids := []RecordID{NewRecordID(0, 5), NewRecordID(1, 0), NewRecordID(1, 7), NewRecordID(2, 1)}
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = string(id.Key())
	}
	if !sort.StringsAreSorted(keys) {
		t.Error("record ID key order broken")
	}
	if _, err := RecordIDFromKey([]byte{1, 2}); err == nil {
		t.Error("short key should fail")
	}
	if NewRecordID(3, 9).String() != "3:9" {
		t.Error("String format")
	}
}

func TestFileRangeCoversExactlyOneFile(t *testing.T) {
	start, end := FileRange(7)
	inside := []RecordID{NewRecordID(7, 0), NewRecordID(7, ^uint32(0))}
	outside := []RecordID{NewRecordID(6, ^uint32(0)), NewRecordID(8, 0)}
	for _, id := range inside {
		k := string(id.Key())
		if k < string(start) || k >= string(end) {
			t.Errorf("id %v should be inside range", id)
		}
	}
	for _, id := range outside {
		k := string(id.Key())
		if k >= string(start) && k < string(end) {
			t.Errorf("id %v should be outside range", id)
		}
	}
}

func TestCreateInsertSelectDual(t *testing.T) {
	e, _ := testEngine(t)
	seedDual(t, e)
	rs := mustExec(t, e, "SELECT COUNT(*) FROM m")
	if rs.Rows[0][0].I != 360 {
		t.Errorf("count = %v", rs.Rows[0])
	}
	rs = mustExec(t, e, "SELECT v FROM m WHERE id = 17")
	if len(rs.Rows) != 1 || rs.Rows[0][0].F != 17.5 {
		t.Errorf("point read = %v", rs.Rows)
	}
}

func TestEditUpdateVisibleThroughUnionRead(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	rs := mustExec(t, e, "UPDATE m SET v = 999.0 WHERE day = 3")
	if rs.Plan != "EDIT" {
		t.Fatalf("plan = %s", rs.Plan)
	}
	if rs.Affected != 10 { // 360 rows, day = i%36 → 10 rows per day
		t.Errorf("affected = %d", rs.Affected)
	}
	got := mustExec(t, e, "SELECT COUNT(*) FROM m WHERE v = 999.0")
	if got.Rows[0][0].I != 10 {
		t.Errorf("union read update count = %v", got.Rows[0])
	}
	// Untouched rows unchanged.
	got = mustExec(t, e, "SELECT v FROM m WHERE id = 0")
	if got.Rows[0][0].F != 0.5 {
		t.Errorf("untouched row = %v", got.Rows[0])
	}
	// Attached table holds exactly 10 cells.
	desc, _ := e.MS.Get("m")
	n, err := h.AttachedEntryCount(desc)
	if err != nil || n != 10 {
		t.Errorf("attached entries = %d, %v", n, err)
	}
}

func TestEditUpdateLatestValueWins(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "UPDATE m SET v = 100.0 WHERE id = 5")
	mustExec(t, e, "UPDATE m SET v = 200.0 WHERE id = 5")
	rs := mustExec(t, e, "SELECT v FROM m WHERE id = 5")
	if rs.Rows[0][0].F != 200 {
		t.Errorf("latest update lost: %v", rs.Rows[0])
	}
}

func TestEditDeleteHidesRows(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	rs := mustExec(t, e, "DELETE FROM m WHERE day = 7")
	if rs.Plan != "EDIT" || rs.Affected != 10 {
		t.Fatalf("delete = %+v", rs)
	}
	got := mustExec(t, e, "SELECT COUNT(*) FROM m")
	if got.Rows[0][0].I != 350 {
		t.Errorf("count after delete = %v", got.Rows[0])
	}
	got = mustExec(t, e, "SELECT COUNT(*) FROM m WHERE day = 7")
	if got.Rows[0][0].I != 0 {
		t.Errorf("deleted rows visible: %v", got.Rows[0])
	}
}

func TestUpdateThenDeleteSameRow(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "UPDATE m SET v = 1.0 WHERE id = 9")
	mustExec(t, e, "DELETE FROM m WHERE id = 9")
	rs := mustExec(t, e, "SELECT COUNT(*) FROM m WHERE id = 9")
	if rs.Rows[0][0].I != 0 {
		t.Errorf("updated-then-deleted row visible: %v", rs.Rows[0])
	}
}

func TestOverwritePlanClearsAttached(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "UPDATE m SET v = 1.0 WHERE day = 2")
	desc, _ := e.MS.Get("m")
	if n, _ := h.AttachedEntryCount(desc); n == 0 {
		t.Fatal("expected attached entries after EDIT")
	}
	forcePlan(e, h, "OVERWRITE")
	rs := mustExec(t, e, "UPDATE m SET v = 2.0 WHERE day = 2")
	if rs.Plan != "OVERWRITE" {
		t.Fatalf("plan = %s", rs.Plan)
	}
	if n, _ := h.AttachedEntryCount(desc); n != 0 {
		t.Errorf("attached table should be empty after OVERWRITE, has %d", n)
	}
	got := mustExec(t, e, "SELECT COUNT(*) FROM m WHERE v = 2.0")
	if got.Rows[0][0].I != 10 {
		t.Errorf("overwrite result = %v", got.Rows[0])
	}
	// Earlier EDIT value must have been folded before being replaced.
	got = mustExec(t, e, "SELECT COUNT(*) FROM m WHERE v = 1.0")
	if got.Rows[0][0].I != 0 {
		t.Errorf("stale EDIT value visible: %v", got.Rows[0])
	}
	got = mustExec(t, e, "SELECT COUNT(*) FROM m")
	if got.Rows[0][0].I != 360 {
		t.Errorf("row count changed: %v", got.Rows[0])
	}
}

// Each statement's ledger counts the jobs it ran, and a scan's counts
// carry one UNION READ row per record it merged.
func TestLedgerJobCounts(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	mustExec(t, e, "CREATE TABLE n (id BIGINT, day BIGINT, v DOUBLE, tag STRING) STORED AS DUALTABLE")
	for _, c := range []struct {
		sql, force string
		jobs       int64
	}{
		{"SELECT id, v FROM m WHERE day = 3", "", 1},
		{"SELECT day, COUNT(*) FROM m GROUP BY day", "", 1},
		{"UPDATE m SET v = 1.0 WHERE day = 3", "EDIT", 1},
		// The SELECT's job writes its rows from its map tasks.
		{"INSERT INTO n SELECT * FROM m", "", 1},
		// OVERWRITE is INSERT OVERWRITE … SELECT: one job, as §IV prices
		// it.
		{"UPDATE m SET v = 2.0 WHERE day = 4", "OVERWRITE", 1},
	} {
		forcePlan(e, h, c.force)
		rs := mustExec(t, e, c.sql)
		if got := rs.Counts[sim.Jobs]; got != c.jobs {
			t.Errorf("%s (plan %s): ledger counts %d jobs, want %d", c.sql, rs.Plan, got, c.jobs)
		}
		if c.jobs == 1 && c.force == "" {
			if got := rs.Counts[sim.UnionReadRows]; got != 360 {
				t.Errorf("%s: %d UNION READ rows, want 360", c.sql, got)
			}
		}
	}
}

func TestCompactFoldsAttachedIntoMaster(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "UPDATE m SET v = 777.0 WHERE day = 1")
	mustExec(t, e, "DELETE FROM m WHERE day = 2")
	desc, _ := e.MS.Get("m")
	if n, _ := h.AttachedEntryCount(desc); n != 20 {
		t.Fatalf("attached entries = %d", n)
	}
	rs := mustExec(t, e, "COMPACT TABLE m")
	if rs.Plan != "COMPACT" {
		t.Errorf("plan = %s", rs.Plan)
	}
	if n, _ := h.AttachedEntryCount(desc); n != 0 {
		t.Errorf("attached entries after compact = %d", n)
	}
	got := mustExec(t, e, "SELECT COUNT(*) FROM m")
	if got.Rows[0][0].I != 350 {
		t.Errorf("count after compact = %v", got.Rows[0])
	}
	got = mustExec(t, e, "SELECT COUNT(*) FROM m WHERE v = 777.0")
	if got.Rows[0][0].I != 10 {
		t.Errorf("updates lost in compact: %v", got.Rows[0])
	}
	// Deleted rows stay gone.
	got = mustExec(t, e, "SELECT COUNT(*) FROM m WHERE day = 2")
	if got.Rows[0][0].I != 0 {
		t.Errorf("deleted rows resurrected: %v", got.Rows[0])
	}
}

func TestCostModelSelectsPlanBySelectivity(t *testing.T) {
	// Use a scaled engine: the cost model reasons at paper scale, and
	// on a genuinely tiny table the OVERWRITE plan's fixed cost always
	// loses to a handful of puts.
	fs := dfs.New(dfs.Config{BlockSize: 1 << 20})
	kv, err := kvstore.NewCluster(fs, "/hbase")
	if err != nil {
		t.Fatal(err)
	}
	params := sim.GridCluster()
	params.DataScale = 1e6
	mr := mapred.NewCluster(params)
	mr.Parallelism = 4
	e, err := hive.NewEngine(hive.Config{FS: fs, KV: kv, MR: mr})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Register(e)
	if err != nil {
		t.Fatal(err)
	}
	seedDual(t, e)
	// Tiny ratio → EDIT; huge ratio → OVERWRITE. Hints pin the ratio
	// (the designer-given α of §IV).
	hintRatio(t, e, h, "UPDATE m SET v = 5.0 WHERE day = 4", 0.001)
	rs := mustExec(t, e, "UPDATE m SET v = 5.0 WHERE day = 4")
	if rs.Plan != "EDIT" {
		t.Errorf("low ratio plan = %s", rs.Plan)
	}
	hintRatio(t, e, h, "UPDATE m SET v = 6.0 WHERE day = 4", 0.99)
	rs = mustExec(t, e, "UPDATE m SET v = 6.0 WHERE day = 4")
	if rs.Plan != "OVERWRITE" {
		t.Errorf("high ratio plan = %s", rs.Plan)
	}
	log := h.PlanLog()
	if len(log) < 2 {
		t.Fatalf("plan log = %v", log)
	}
	last := log[len(log)-1]
	if last.RatioSrc != "session-hint" || last.Ratio != 0.99 {
		t.Errorf("plan decision = %+v", last)
	}
}

func TestHistoryFeedsEstimator(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "UPDATE m SET v = 1.0 WHERE day = 3")
	forcePlan(e, h, "")
	stmt, err := sqlparser.Parse("UPDATE m SET v = 1.0 WHERE day = 3")
	if err != nil {
		t.Fatal(err)
	}
	key, err := h.StatementKey(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if h.Estimator().HistoryLen(key) != 1 {
		t.Errorf("EDIT execution did not record history under %q", key)
	}
	// A different constant must share the same history key.
	stmt2, _ := sqlparser.Parse("UPDATE m SET v = 42.0 WHERE day = 17")
	key2, _ := h.StatementKey(stmt2)
	if key != key2 {
		t.Errorf("literal normalization broken: %q vs %q", key, key2)
	}
}

// Digits inside an identifier name a column, not a literal: statements
// on different columns keep apart (history and ratio hints), and only
// their constants are masked. A folded negative constant is one
// literal and masks like any other; TRUE, FALSE and NULL stay.
func TestStatementKeySeparatesColumns(t *testing.T) {
	_, h := testEngine(t)
	key := func(sql string) string {
		t.Helper()
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		k, err := h.StatementKey(stmt)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	c1 := key("UPDATE t SET c1 = 1 WHERE k = 2")
	if c2 := key("UPDATE t SET c2 = 1 WHERE k = 2"); c1 == c2 {
		t.Errorf("SET c1 and SET c2 share the key %q", c1)
	}
	if d1, d2 := key("DELETE FROM t2 WHERE k_9 = 1"), key("DELETE FROM t2 WHERE k_8 = 1"); d1 == d2 {
		t.Errorf("k_9 and k_8 share the key %q", d1)
	}
	if other := key("UPDATE t SET c1 = 3.5e2 WHERE k = 70"); other != c1 {
		t.Errorf("different literals keyed apart: %q vs %q", other, c1)
	}
	if neg := key("UPDATE t SET c1 = -4 WHERE k = -2.5"); neg != c1 {
		t.Errorf("negative literals keyed apart: %q vs %q", neg, c1)
	}
	if want := "U:t:UPDATE t SET c1 = ? WHERE (k = ?)"; c1 != want {
		t.Errorf("key = %q, want %q", c1, want)
	}
	if k := key("DELETE FROM t WHERE (b = TRUE) OR (n IS NULL) OR (s = 'x')"); k !=
		"D:t:DELETE FROM t WHERE (((b = true) OR (n IS NULL)) OR (s = ?))" {
		t.Errorf("TRUE/NULL masked or string kept: %q", k)
	}
	if f, n := key("DELETE FROM t WHERE b = FALSE"), key("DELETE FROM t WHERE b = NULL"); f == n {
		t.Errorf("FALSE and NULL share the key %q", f)
	}
}

func TestInsertIntoAppendsNewMasterFile(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	mustExec(t, e, "INSERT INTO m VALUES (1000, 99, 1.0, 'new')")
	rs := mustExec(t, e, "SELECT COUNT(*) FROM m")
	if rs.Rows[0][0].I != 361 {
		t.Errorf("count after append = %v", rs.Rows[0])
	}
	desc, _ := e.MS.Get("m")
	files := snapshotFiles(t, h, desc)
	if len(files) < 2 {
		t.Errorf("expected additional master file, have %d", len(files))
	}
	// File IDs must be unique.
	seen := map[uint32]bool{}
	for _, f := range files {
		if seen[f.fileID] {
			t.Errorf("duplicate file ID %d", f.fileID)
		}
		seen[f.fileID] = true
	}
	// Updates to appended rows work (they have distinct record IDs).
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "UPDATE m SET tag = 'patched' WHERE id = 1000")
	got := mustExec(t, e, "SELECT tag FROM m WHERE id = 1000")
	if got.Rows[0][0].S != "patched" {
		t.Errorf("appended row update = %v", got.Rows[0])
	}
}

func TestDropCleansEverything(t *testing.T) {
	e, _ := testEngine(t)
	seedDual(t, e)
	mustExec(t, e, "DROP TABLE m")
	if e.FS.Exists("/warehouse/m") {
		t.Error("master dir survived drop")
	}
	if e.KV.HasTable("dt_m_attached") {
		t.Error("attached table survived drop")
	}
	// Recreate works.
	mustExec(t, e, "CREATE TABLE m (id BIGINT) STORED AS DUALTABLE")
	mustExec(t, e, "INSERT INTO m VALUES (1)")
	rs := mustExec(t, e, "SELECT COUNT(*) FROM m")
	if rs.Rows[0][0].I != 1 {
		t.Errorf("recreated table count = %v", rs.Rows[0])
	}
}

func TestPaperListing1OnDualTable(t *testing.T) {
	// Full integration: the paper's motivating correlated-subquery
	// UPDATE against a DUALTABLE with the EDIT plan.
	e, h := testEngine(t)
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "CREATE TABLE tj_tqxsqk_r (dwdm STRING, rq STRING, glfs BIGINT, cjfs BIGINT, qryhs DOUBLE) STORED AS DUALTABLE")
	mustExec(t, e, "CREATE TABLE tj_tqxs_r (dwdm STRING, tjrq STRING, glfs BIGINT, zjfs BIGINT, tqyhs DOUBLE, sfqr BIGINT) STORED AS DUALTABLE")
	mustExec(t, e, `INSERT INTO tj_tqxsqk_r VALUES
		('org1', '2014-04-01', 1, 2, 0.0),
		('org2', '2014-04-01', 1, 2, 0.0),
		('org1', '2014-04-02', 1, 2, 0.0)`)
	mustExec(t, e, `INSERT INTO tj_tqxs_r VALUES
		('org1', '2014-04-01', 1, 2, 10.0, 1),
		('org1', '2014-04-01', 1, 2, 20.0, 1),
		('org1', '2014-04-01', 1, 2, 99.0, 0),
		('org2', '2014-04-01', 1, 2, 5.0, 1)`)
	mustExec(t, e, `UPDATE tj_tqxsqk_r t
		SET t.QRYHS = (SELECT SUM(k.tqyhs) FROM tj_tqxs_r k
			WHERE t.rq = k.tjrq AND k.glfs = t.glfs
			AND k.zjfs = t.cjfs AND k.dwdm = t.dwdm AND k.sfqr = 1)
		WHERE t.rq = '2014-04-01'`)
	rs := mustExec(t, e, "SELECT dwdm, qryhs FROM tj_tqxsqk_r ORDER BY dwdm, rq")
	want := []string{"org1\t30", "org1\t0", "org2\t5"}
	got := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		got[i] = r.String()
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("listing 1 on dualtable:\ngot  %v\nwant %v", got, want)
	}
}

// TestDifferentialDualVsORC applies identical random DML schedules to
// a DUALTABLE (cost-model plans) and an ORC table (always rewrite)
// and requires identical visible contents after every statement
// batch.
func TestDifferentialDualVsORC(t *testing.T) {
	for _, seed := range []int64{7, 21} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			e, h := testEngine(t)
			rng := rand.New(rand.NewSource(seed))
			for _, stor := range []string{"DUALTABLE", "ORC"} {
				name := map[string]string{"DUALTABLE": "d1", "ORC": "o1"}[stor]
				mustExec(t, e, fmt.Sprintf("CREATE TABLE %s (id BIGINT, grp BIGINT, v DOUBLE) STORED AS %s", name, stor))
				var sb strings.Builder
				fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", name)
				for i := 0; i < 120; i++ {
					if i > 0 {
						sb.WriteString(", ")
					}
					fmt.Fprintf(&sb, "(%d, %d, %d.0)", i, i%12, i)
				}
				mustExec(t, e, sb.String())
			}
			for step := 0; step < 12; step++ {
				grp := rng.Intn(12)
				var stmts []string
				switch rng.Intn(4) {
				case 0:
					stmts = []string{fmt.Sprintf("UPDATE %%s SET v = v + 1000 WHERE grp = %d", grp)}
				case 1:
					stmts = []string{fmt.Sprintf("DELETE FROM %%s WHERE grp = %d AND id %%%% 2 = 0", grp)}
				case 2:
					stmts = []string{fmt.Sprintf("INSERT INTO %%s VALUES (%d, %d, 5.0)", 1000+step, grp)}
				default:
					stmts = []string{"COMPACT TABLE %s"}
				}
				for _, tmpl := range stmts {
					for _, name := range []string{"d1", "o1"} {
						sql := fmt.Sprintf(tmpl, name)
						if strings.HasPrefix(sql, "COMPACT") && name == "o1" {
							continue // ORC has no COMPACT; it is always compacted
						}
						if _, err := e.Execute(sql); err != nil {
							t.Fatalf("step %d %s: %v", step, sql, err)
						}
					}
				}
				a := mustExec(t, e, "SELECT id, grp, v FROM d1 ORDER BY id")
				b := mustExec(t, e, "SELECT id, grp, v FROM o1 ORDER BY id")
				as := make([]string, len(a.Rows))
				bs := make([]string, len(b.Rows))
				for i, r := range a.Rows {
					as[i] = r.String()
				}
				for i, r := range b.Rows {
					bs[i] = r.String()
				}
				if !reflect.DeepEqual(as, bs) {
					t.Fatalf("step %d: dualtable and ORC diverged\ndual: %v\norc:  %v", step, as, bs)
				}
			}
			_ = h
		})
	}
}

func TestUnionReadSkipsOrphanAttachedEntries(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	// Inject an orphan attached entry for a record ID beyond any
	// master row: it must be ignored by UNION READ.
	desc, _ := e.MS.Get("m")
	att, err := h.attached(desc)
	if err != nil {
		t.Fatal(err)
	}
	files := snapshotFiles(t, h, desc)
	orphan := NewRecordID(files[0].fileID, uint32(files[0].rows)+100)
	err = att.Put([]*kvstore.Cell{{
		Row: orphan.Key(), Family: attachedFamily,
		Qualifier: []byte("2"), Type: kvstore.TypePut, Value: []byte{0x01, 0x02},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs := mustExec(t, e, "SELECT COUNT(*) FROM m")
	if rs.Rows[0][0].I != 360 {
		t.Errorf("orphan entry corrupted scan: %v", rs.Rows[0])
	}
}

func TestPlanLogBounded(t *testing.T) {
	_, h := testEngine(t)
	for i := 0; i < 1100; i++ {
		h.logPlan(nil, PlanDecision{Table: "t"})
	}
	if n := len(h.PlanLog()); n != 1024 {
		t.Errorf("plan log length = %d", n)
	}
}

// TestCompactCancellable checks that canceling the context aborts
// COMPACT between records, leaves the table (master + attached)
// untouched, and releases the table lock for later statements.
func TestCompactCancellable(t *testing.T) {
	e, h := testEngine(t)
	seedDual(t, e)
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "UPDATE m SET v = 777.0 WHERE day = 1")
	desc, _ := e.MS.Get("m")
	before, _ := h.AttachedEntryCount(desc)
	if before == 0 {
		t.Fatal("expected attached entries before compact")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: compact must do no work
	ec := &hive.ExecContext{Ctx: ctx}
	if _, err := e.ExecuteCtx(ec, "COMPACT TABLE m"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n, _ := h.AttachedEntryCount(desc); n != before {
		t.Errorf("attached entries changed on canceled compact: %d -> %d", before, n)
	}
	got := mustExec(t, e, "SELECT COUNT(*) FROM m WHERE v = 777.0")
	if got.Rows[0][0].I != 10 {
		t.Errorf("table changed by canceled compact: %v", got.Rows[0])
	}

	// The lock was released: a real COMPACT still succeeds.
	rs := mustExec(t, e, "COMPACT TABLE m")
	if rs.Plan != "COMPACT" {
		t.Fatalf("plan = %s", rs.Plan)
	}
	if n, _ := h.AttachedEntryCount(desc); n != 0 {
		t.Errorf("attached entries after compact = %d", n)
	}
}
