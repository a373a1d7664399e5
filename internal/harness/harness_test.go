package harness

import (
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config {
	c := DefaultConfig()
	c.Quick = true
	c.Parallelism = 4
	return c
}

// parse a "123.4" seconds cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad cell %q: %v", s, err)
	}
	return v
}

func runExp(t *testing.T, id string) *Result {
	t.Helper()
	exp, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	res, err := exp.Run(quickCfg())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	if res.Format() == "" || res.Markdown() == "" {
		t.Fatalf("%s renders empty", id)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"table4", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "excost",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
	if _, ok := Get("nope"); ok {
		t.Error("bogus id should not resolve")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	res := runExp(t, "table1")
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		got := cell(t, row[5])
		want := cell(t, row[6])
		if got < want-1 || got > want+1 {
			t.Errorf("scenario %s DML%% = %v, paper %v", row[0], got, want)
		}
		if got < 50 {
			t.Errorf("scenario %s below the paper's 50%% DML floor", row[0])
		}
	}
}

func TestFig4OverheadSmall(t *testing.T) {
	res := runExp(t, "fig4")
	for _, row := range res.Rows {
		h := cell(t, row[1])
		d := cell(t, row[2])
		if d < h {
			t.Errorf("%s: dualtable (%v) faster than hive (%v) with empty attached table?", row[0], d, h)
		}
		if d > h*1.35 {
			t.Errorf("%s: overhead too large: hive %v dual %v", row[0], h, d)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	res := runExp(t, "fig5")
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	hiveFirst, hiveLast := cell(t, first[1]), cell(t, last[1])
	// Paper: Hive roughly flat.
	if hiveLast < hiveFirst*0.8 || hiveLast > hiveFirst*1.2 {
		t.Errorf("hive update should be flat: %v .. %v", hiveFirst, hiveLast)
	}
	// EDIT grows with the ratio.
	if cell(t, last[2]) <= cell(t, first[2]) {
		t.Errorf("EDIT should grow with ratio: %v .. %v", first[2], last[2])
	}
	// EDIT beats Hive at the lowest ratio (the paper's headline).
	if cell(t, first[2]) >= hiveFirst {
		t.Errorf("EDIT (%v) should beat Hive (%v) at 1/36", cell(t, first[2]), hiveFirst)
	}
	// The cost model switches to OVERWRITE at high ratios and tracks
	// Hive there.
	if last[4] != "OVERWRITE" {
		t.Errorf("cost model plan at 17/36 = %s", last[4])
	}
	if first[4] != "EDIT" {
		t.Errorf("cost model plan at 1/36 = %s", first[4])
	}
	costLast := cell(t, last[3])
	if costLast > hiveLast*1.3 {
		t.Errorf("cost-model line (%v) should track Hive (%v) after the switch", costLast, hiveLast)
	}
}

func TestFig6Shape(t *testing.T) {
	res := runExp(t, "fig6")
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	// Paper: Hive delete run time decreases with ratio.
	if cell(t, last[1]) >= cell(t, first[1]) {
		t.Errorf("hive delete should decrease with ratio: %v .. %v", first[1], last[1])
	}
	if cell(t, first[2]) >= cell(t, first[1]) {
		t.Errorf("EDIT delete should beat Hive at 1/36")
	}
	if first[4] != "EDIT" || last[4] != "OVERWRITE" {
		t.Errorf("plans = %s .. %s", first[4], last[4])
	}
}

func TestFig7UnionReadOverheadGrows(t *testing.T) {
	res := runExp(t, "fig7")
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	// Hive read roughly flat; UnionRead grows with attached size.
	if cell(t, last[2]) <= cell(t, first[2]) {
		t.Errorf("UnionRead should grow with update ratio: %v .. %v", first[2], last[2])
	}
	if cell(t, last[2]) <= cell(t, last[1]) {
		t.Errorf("UnionRead at 17/36 (%v) should exceed Hive read (%v)", cell(t, last[2]), cell(t, last[1]))
	}
}

func TestFig11Ordering(t *testing.T) {
	res := runExp(t, "fig11")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// For every query: Hive(HBase) slowest; DualTable within 35% of
	// Hive(HDFS).
	for col := 1; col <= 3; col++ {
		hdfs := cell(t, res.Rows[0][col])
		hbase := cell(t, res.Rows[1][col])
		dual := cell(t, res.Rows[2][col])
		if hbase <= hdfs || hbase <= dual {
			t.Errorf("col %d: HBase (%v) must be slowest (hdfs %v, dual %v)", col, hbase, hdfs, dual)
		}
		if dual > hdfs*1.35 {
			t.Errorf("col %d: DualTable read overhead too big: %v vs %v", col, dual, hdfs)
		}
	}
}

func TestFig12DualWins(t *testing.T) {
	res := runExp(t, "fig12")
	for col := 1; col <= 3; col++ {
		hdfs := cell(t, res.Rows[0][col])
		hbase := cell(t, res.Rows[1][col])
		dual := cell(t, res.Rows[2][col])
		if dual >= hdfs || dual >= hbase {
			t.Errorf("col %d: DualTable (%v) should be most efficient (hdfs %v, hbase %v)",
				col, dual, hdfs, hbase)
		}
	}
}

func TestFig13Crossover(t *testing.T) {
	res := runExp(t, "fig13")
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if cell(t, first[2]) >= cell(t, first[1]) {
		t.Error("EDIT should beat Hive at 1%")
	}
	if cell(t, last[2]) <= cell(t, last[1]) {
		t.Error("EDIT should lose to Hive at 50% (crossover ≈35%)")
	}
	if first[4] != "EDIT" || last[4] != "OVERWRITE" {
		t.Errorf("plans = %s .. %s", first[4], last[4])
	}
}

func TestFig14DeleteShape(t *testing.T) {
	res := runExp(t, "fig14")
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if cell(t, last[1]) >= cell(t, first[1]) {
		t.Error("hive delete should cheapen with ratio")
	}
	if cell(t, first[2]) >= cell(t, first[1]) {
		t.Error("EDIT delete should beat Hive at 1%")
	}
}

func TestFig15To18ReadOverheads(t *testing.T) {
	for _, id := range []string{"fig15", "fig17"} {
		res := runExp(t, id)
		first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
		if cell(t, last[2]) <= cell(t, first[2]) {
			t.Errorf("%s: UnionRead should grow with ratio", id)
		}
	}
	for _, id := range []string{"fig16", "fig18"} {
		res := runExp(t, id)
		first := res.Rows[0]
		// DualTable total (DML+read) beats Hive at low ratios.
		if cell(t, first[2]) >= cell(t, first[1]) {
			t.Errorf("%s: dual total should beat hive at 1%%: %v vs %v", id, first[2], first[1])
		}
	}
}

func TestTable4AllEDITAndFaster(t *testing.T) {
	res := runExp(t, "table4")
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[5] != "EDIT" {
			t.Errorf("%s chose %s; paper's cost model picks EDIT for all 8", row[0], row[5])
		}
		h := cell(t, row[2])
		d := cell(t, row[3])
		if d >= h {
			t.Errorf("%s: DualTable (%v) should beat Hive (%v)", row[0], d, h)
		}
	}
}

func TestExCostWorkedExample(t *testing.T) {
	res := runExp(t, "excost")
	found := false
	for _, row := range res.Rows {
		if row[0] == "CostU (computed)" {
			if !strings.HasPrefix(row[1], "38.75") {
				t.Errorf("computed CostU = %s, want 38.75 s", row[1])
			}
			found = true
		}
	}
	if !found {
		t.Error("missing computed CostU row")
	}
}

// The three figures that view one sweep read one computation of it.
func TestSweepFiguresShareOneSweep(t *testing.T) {
	cfg := quickCfg().normalized()
	sweepMu.Lock()
	before := len(sweeps)
	sweepMu.Unlock()
	var rows []int
	for _, id := range []string{"fig5", "fig7", "fig8"} {
		rows = append(rows, len(runExp(t, id).Rows))
	}
	sweepMu.Lock()
	added, points := len(sweeps)-before, sweeps[sweepKey{gridSet, true, cfg}]
	sweepMu.Unlock()
	if added > 1 || points == nil {
		t.Fatalf("fig5, fig7 and fig8 added %d sweeps (memoized: %v), want the one grid UPDATE sweep", added, points != nil)
	}
	for i, n := range rows {
		if n != len(points) {
			t.Errorf("figure %d has %d rows, the sweep %d points", i, n, len(points))
		}
	}
}
