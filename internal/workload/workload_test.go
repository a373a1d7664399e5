package workload

import (
	"fmt"
	"math"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/dfs"
	"dualtable/internal/hive"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/sim"
)

func testEngine(t *testing.T) *hive.Engine {
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
	return e
}

func TestGenLineitemShape(t *testing.T) {
	rows := GenLineitem(1000, 1)
	if len(rows) != 1000 {
		t.Fatalf("rows = %d", len(rows))
	}
	// 16 columns, line numbers 1..7, ascending order keys.
	prevOrder := int64(0)
	for i, r := range rows {
		if len(r) != 16 {
			t.Fatalf("row %d arity = %d", i, len(r))
		}
		if r[0].I < prevOrder {
			t.Fatalf("order keys not ascending at %d", i)
		}
		prevOrder = r[0].I
		if r[3].I < 1 || r[3].I > 7 {
			t.Errorf("line number out of range: %d", r[3].I)
		}
		if r[6].F < 0 || r[6].F > 0.10001 {
			t.Errorf("discount out of range: %v", r[6].F)
		}
	}
	// Deterministic.
	again := GenLineitem(1000, 1)
	for i := range rows {
		if !rows[i].Equal(again[i]) {
			t.Fatal("generation not deterministic")
		}
	}
	if GenLineitem(10, 2)[0].Equal(rows[0]) {
		t.Error("different seeds should differ")
	}
}

func TestGenOrdersShape(t *testing.T) {
	rows := GenOrders(500, 1)
	if len(rows) != 500 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if len(r) != 9 {
			t.Fatalf("row %d arity = %d", i, len(r))
		}
		if r[0].I != int64(i+1) {
			t.Errorf("order keys must be dense: %d", r[0].I)
		}
	}
}

func TestSetupTPCHAndQueries(t *testing.T) {
	e := testEngine(t)
	cfg := TPCHConfig{LineitemRows: 600, OrdersRows: 150, Seed: 1, Storage: "ORC"}
	if err := SetupTPCH(e, cfg); err != nil {
		t.Fatal(err)
	}
	rs, err := e.Execute(QueryC)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].I != 600 {
		t.Errorf("count = %v", rs.Rows[0])
	}
	rs, err = e.Execute(QueryA)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 || len(rs.Rows) > 6 {
		t.Errorf("Q1 groups = %d", len(rs.Rows))
	}
	// sum_qty per group must be positive.
	for _, r := range rs.Rows {
		if v, _ := r[2].AsFloat(); v <= 0 {
			t.Errorf("Q1 sum_qty = %v", r)
		}
	}
	if _, err = e.Execute(QueryB); err != nil {
		t.Fatal(err)
	}
}

func TestTPCHDMLRatios(t *testing.T) {
	e := testEngine(t)
	cfg := TPCHConfig{LineitemRows: 4000, OrdersRows: 1000, Seed: 3, Storage: "ORC"}
	if err := SetupTPCH(e, cfg); err != nil {
		t.Fatal(err)
	}
	rs, err := e.Execute(DMLA)
	if err != nil {
		t.Fatal(err)
	}
	// DML-a targets ~5% of lineitem. The OVERWRITE rewrite reports
	// written rows, so measure by value.
	rs, err = e.Execute("SELECT COUNT(*) FROM lineitem WHERE l_comment = 'updated by dml-a'")
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(rs.Rows[0][0].I) / 4000
	if frac < 0.03 || frac > 0.08 {
		t.Errorf("DML-a fraction = %v, want ≈0.05", frac)
	}
	before, _ := e.Execute("SELECT COUNT(*) FROM lineitem")
	if _, err := e.Execute(DMLB); err != nil {
		t.Fatal(err)
	}
	after, _ := e.Execute("SELECT COUNT(*) FROM lineitem")
	delFrac := float64(before.Rows[0][0].I-after.Rows[0][0].I) / 4000
	if delFrac < 0.01 || delFrac > 0.04 {
		t.Errorf("DML-b fraction = %v, want ≈0.02", delFrac)
	}
	if _, err := e.Execute(DMLC); err != nil {
		t.Fatal(err)
	}
	rs, _ = e.Execute("SELECT COUNT(*) FROM orders WHERE o_comment = 'updated by dml-c'")
	updFrac := float64(rs.Rows[0][0].I) / 1000
	if updFrac < 0.08 || updFrac > 0.26 {
		t.Errorf("DML-c fraction = %v, want ≈0.16", updFrac)
	}
}

func TestGridTableRowCountsScale(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Scale = 1.0 / 100000
	for _, tbl := range append(GridTablesII(), GridTablesIII()...) {
		rows := tbl.Rows(cfg)
		want := int(float64(tbl.PaperRows) * cfg.Scale)
		if want < 36 {
			want = 36
		}
		if len(rows) != want {
			t.Errorf("%s rows = %d, want %d", tbl.Name, len(rows), want)
		}
		// Arity must match schema + fillers.
		sql := tbl.CreateSQL(cfg)
		if len(rows[0]) == 0 {
			t.Errorf("%s empty rows; create = %s", tbl.Name, sql)
		}
	}
}

func TestGridDaysUniform(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Scale = 1.0 / 4000 // tj_gbsjwzl_mx → ~60k rows
	tbl := GridTablesII()[4]
	rows := tbl.Rows(cfg)
	counts := map[string]int{}
	for _, r := range rows {
		counts[r[1].S]++
	}
	if len(counts) != 36 {
		t.Fatalf("distinct days = %d, want 36", len(counts))
	}
	mean := float64(len(rows)) / 36
	for d, c := range counts {
		if math.Abs(float64(c)-mean) > mean*0.3 {
			t.Errorf("day %s count %d deviates from uniform mean %.0f", d, c, mean)
		}
	}
}

func TestTableIVRatiosRealized(t *testing.T) {
	// Generated data must realize the paper's modification ratios.
	e := testEngine(t)
	cfg := DefaultGridConfig()
	cfg.Scale = 1.0 / 3000
	cfg.Storage = "ORC"
	cfg.FillerColumns = 0
	if err := SetupGrid(e, cfg, GridTablesIII()); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range TableIV() {
		stmt := stmt
		t.Run(stmt.ID, func(t *testing.T) {
			where := stmt.SQL[indexOfWhere(stmt.SQL):]
			total, err := e.Execute("SELECT COUNT(*) FROM " + stmt.Table)
			if err != nil {
				t.Fatal(err)
			}
			match, err := e.Execute(fmt.Sprintf("SELECT COUNT(*) FROM %s %s", stmt.Table, where))
			if err != nil {
				t.Fatal(err)
			}
			frac := float64(match.Rows[0][0].I) / float64(total.Rows[0][0].I)
			lo, hi := stmt.Ratio*0.4, stmt.Ratio*2.5+0.0005
			if frac < lo || frac > hi {
				t.Errorf("%s realized ratio %.5f outside [%.5f, %.5f] (target %.4f)",
					stmt.ID, frac, lo, hi, stmt.Ratio)
			}
		})
	}
}

func indexOfWhere(sql string) int {
	for i := 0; i+5 <= len(sql); i++ {
		if sql[i:i+5] == "WHERE" {
			return i
		}
	}
	return len(sql)
}

func TestTableIVStatementsExecute(t *testing.T) {
	e := testEngine(t)
	cfg := DefaultGridConfig()
	cfg.Scale = 1.0 / 20000
	cfg.Storage = "ORC"
	cfg.FillerColumns = 0
	if err := SetupGrid(e, cfg, GridTablesIII()); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range TableIV() {
		if _, err := e.Execute(stmt.SQL); err != nil {
			t.Errorf("%s: %v", stmt.ID, err)
		}
	}
}

func TestGridQueriesExecute(t *testing.T) {
	e := testEngine(t)
	cfg := DefaultGridConfig()
	cfg.Scale = 1.0 / 50000
	cfg.Storage = "ORC"
	if err := SetupGrid(e, cfg, GridTablesII()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(GridQuery1); err != nil {
		t.Errorf("query1: %v", err)
	}
	rs, err := e.Execute(GridQuery2)
	if err != nil {
		t.Fatalf("query2: %v", err)
	}
	if rs.Rows[0][0].I == 0 {
		t.Error("query2 counted nothing")
	}
}

func TestGridUpdateDeleteByDaysRatio(t *testing.T) {
	e := testEngine(t)
	cfg := DefaultGridConfig()
	cfg.Scale = 1.0 / 10000
	cfg.Storage = "ORC"
	if err := SetupGrid(e, cfg, GridTablesII()[4:5]); err != nil { // tj_gbsjwzl_mx
		t.Fatal(err)
	}
	total, _ := e.Execute("SELECT COUNT(*) FROM tj_gbsjwzl_mx")
	n := total.Rows[0][0].I
	sql := GridUpdateByDays("tj_gbsjwzl_mx", 9) // 9/36 = 25%
	where := sql[indexOfWhere(sql):]
	match, err := e.Execute("SELECT COUNT(*) FROM tj_gbsjwzl_mx " + where)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(match.Rows[0][0].I) / float64(n)
	if math.Abs(frac-0.25) > 0.05 {
		t.Errorf("9/36 day filter selects %.3f, want ≈0.25", frac)
	}
	if _, err := e.Execute(sql); err != nil {
		t.Errorf("update by days: %v", err)
	}
	if _, err := e.Execute(GridDeleteByDays("tj_gbsjwzl_mx", 3)); err != nil {
		t.Errorf("delete by days: %v", err)
	}
}

func TestScenarioTable1Reproduced(t *testing.T) {
	for _, spec := range PaperScenarios() {
		script := GenScenarioScript(spec, 42)
		if len(script) != spec.Total {
			t.Fatalf("scenario %d: %d statements, want %d", spec.ID, len(script), spec.Total)
		}
		a, err := AnalyzeScenario(spec, script)
		if err != nil {
			t.Fatal(err)
		}
		if a.Update != spec.Update || a.Delete != spec.Delete || a.Merge != spec.Merge {
			t.Errorf("scenario %d analysis = %+v, want spec %+v", spec.ID, a, spec)
		}
		// The paper's headline: DML ≥ 50% in every scenario.
		if a.DMLPct < 50 {
			t.Errorf("scenario %d DML%% = %d, paper reports ≥50", spec.ID, a.DMLPct)
		}
	}
}

func TestScenarioPaperDMLPercentages(t *testing.T) {
	want := map[int]int{1: 61, 2: 72, 3: 78, 4: 50, 5: 63}
	for _, spec := range PaperScenarios() {
		a, err := AnalyzeScenario(spec, GenScenarioScript(spec, 1))
		if err != nil {
			t.Fatal(err)
		}
		// Integer arithmetic may differ ±1 from the paper's rounding.
		if diff := a.DMLPct - want[spec.ID]; diff < -1 || diff > 1 {
			t.Errorf("scenario %d DML%% = %d, paper says %d", spec.ID, a.DMLPct, want[spec.ID])
		}
	}
}

func TestBulkLoadCoerces(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Execute("CREATE TABLE t (a BIGINT, b DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	rows := []datum.Row{{datum.String_("5"), datum.Int(2)}}
	rs, err := e.BulkLoad("t", rows)
	if err != nil || rs.Affected != 1 {
		t.Fatalf("bulk load: %v %v", rs, err)
	}
	got, _ := e.Execute("SELECT a, b FROM t")
	if got.Rows[0][0].I != 5 || got.Rows[0][1].F != 2 {
		t.Errorf("coerced row = %v", got.Rows[0])
	}
}
