package harness

import (
	"fmt"

	"dualtable/internal/hive"
	"dualtable/internal/sim"
	"dualtable/internal/workload"
)

// gridScale derives the grid generator config from the harness
// config.
func gridCfg(cfg Config) workload.GridConfig {
	g := workload.DefaultGridConfig()
	g.Scale = cfg.Scale
	if cfg.Quick {
		g.Scale = cfg.Scale / 4
	}
	g.Seed = cfg.Seed
	return g
}

// newGridEnv builds one system loaded with the given grid tables.
func newGridEnv(cfg Config, storage string, tables []workload.GridTable) (*env, error) {
	g := gridCfg(cfg)
	e, err := newEnv(sim.GridCluster(), cfg, g.Scale)
	if err != nil {
		return nil, err
	}
	g.Storage = storage
	if err := workload.SetupGrid(e.engine, g, tables); err != nil {
		return nil, err
	}
	return e, nil
}

func init() {
	register(Experiment{ID: "table1", Title: "Ratio of DML operations in grid scenarios (paper Table I)", Run: runTable1})
	register(Experiment{ID: "fig4", Title: "Read performance, empty attached table (paper Fig. 4)", Run: runFig4})
	register(Experiment{ID: "fig5", Title: "UPDATE performance vs modification ratio (paper Fig. 5)", Run: runFig5})
	register(Experiment{ID: "fig6", Title: "DELETE performance vs modification ratio (paper Fig. 6)", Run: runFig6})
	register(Experiment{ID: "fig7", Title: "SELECT after UPDATE — UnionRead overhead (paper Fig. 7)", Run: runFig7})
	register(Experiment{ID: "fig8", Title: "UPDATE + following SELECT total (paper Fig. 8)", Run: runFig8})
	register(Experiment{ID: "fig9", Title: "SELECT after DELETE (paper Fig. 9)", Run: runFig9})
	register(Experiment{ID: "fig10", Title: "DELETE + following SELECT total (paper Fig. 10)", Run: runFig10})
	register(Experiment{ID: "table4", Title: "Real State Grid statements U#1–4, D#1–4 (paper Table IV)", Run: runTable4})
}

func runTable1(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	res := &Result{
		ID:     "table1",
		Title:  "Ratio of DML operations in grid scenarios",
		Header: []string{"scenario", "total", "delete", "update", "merge", "% DML", "paper % DML"},
	}
	paperPct := map[int]int{1: 61, 2: 72, 3: 78, 4: 50, 5: 63}
	for _, spec := range workload.PaperScenarios() {
		script := workload.GenScenarioScript(spec, cfg.Seed)
		a, err := workload.AnalyzeScenario(spec, script)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(a.Scenario), fmt.Sprint(a.Total), fmt.Sprint(a.Delete),
			fmt.Sprint(a.Update), fmt.Sprint(a.Merge),
			fmt.Sprint(a.DMLPct), fmt.Sprint(paperPct[spec.ID]),
		})
	}
	res.Notes = append(res.Notes, "scripts regenerated with the paper's statement composition and re-analyzed by parsing")
	return res, nil
}

// gridReadQuery is the follow-up read used by Figs. 7–10 (full scan
// with real column reads).
const gridReadQuery = "SELECT COUNT(*), SUM(yhlx) FROM tj_gbsjwzl_mx"

func runFig4(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	tables := workload.GridTablesII()
	hiveEnv, err := newGridEnv(cfg, "ORC", tables)
	if err != nil {
		return nil, err
	}
	dualEnv, err := newGridEnv(cfg, "DUALTABLE", tables)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig4",
		Title:  "Read performance with empty attached table",
		Header: []string{"query", "hive (sim s)", "dualtable (sim s)", "overhead"},
	}
	for _, q := range []struct {
		name string
		sql  string
	}{
		{"query1 (3-way join)", workload.GridQuery1},
		{"query2 (count mx)", workload.GridQuery2},
	} {
		h, err := hiveEnv.run(q.sql)
		if err != nil {
			return nil, err
		}
		d, err := dualEnv.run(q.sql)
		if err != nil {
			return nil, err
		}
		over := (d.SimSeconds - h.SimSeconds) / h.SimSeconds
		res.Rows = append(res.Rows, []string{q.name, secs(h.SimSeconds), secs(d.SimSeconds), pct(over)})
	}
	res.Notes = append(res.Notes,
		"paper: DualTable overhead ≈8% on statement 1, ≈12% on statement 2 (attached table empty)")
	return res, nil
}

// gridDMLSweep runs the Fig. 5/6 sweeps: per ratio point, fresh
// tables per system, one DML, optionally one follow-up read.
type sweepPoint struct {
	n            int // days modified (of 36)
	hive         float64
	dualEdit     float64
	dualCost     float64
	dualCostPlan string
	hiveRead     float64
	dualEditRead float64
	dualCostRead float64
}

func gridDMLSweep(cfg Config, update bool) ([]sweepPoint, error) {
	table := workload.GridTablesII()[4:5] // tj_gbsjwzl_mx
	var points []sweepPoint
	for _, n := range gridRatioPoints(cfg.Quick) {
		pt := sweepPoint{n: n}
		var sql string
		if update {
			sql = workload.GridUpdateByDays("tj_gbsjwzl_mx", n)
		} else {
			sql = workload.GridDeleteByDays("tj_gbsjwzl_mx", n)
		}
		// Hive(HDFS): ORC storage, rewrite plan.
		h, err := newGridEnv(cfg, "ORC", table)
		if err != nil {
			return nil, err
		}
		rs, err := h.run(sql)
		if err != nil {
			return nil, err
		}
		pt.hive = rs.SimSeconds
		if rs, err = h.run(gridReadQuery); err != nil {
			return nil, err
		}
		pt.hiveRead = rs.SimSeconds

		// DualTable forced EDIT.
		de, err := newGridEnv(cfg, "DUALTABLE", table)
		if err != nil {
			return nil, err
		}
		de.vars.Set(hive.VarFollowingReads, "0")
		de.vars.Set(hive.VarForcePlan, "EDIT")
		if rs, err = de.run(sql); err != nil {
			return nil, err
		}
		pt.dualEdit = rs.SimSeconds
		if rs, err = de.run(gridReadQuery); err != nil {
			return nil, err
		}
		pt.dualEditRead = rs.SimSeconds

		// DualTable with the cost model.
		dc, err := newGridEnv(cfg, "DUALTABLE", table)
		if err != nil {
			return nil, err
		}
		dc.vars.Set(hive.VarFollowingReads, "0")
		if err := dc.hintRatio(sql, float64(n)/36); err != nil {
			return nil, err
		}
		if rs, err = dc.run(sql); err != nil {
			return nil, err
		}
		pt.dualCost = rs.SimSeconds
		pt.dualCostPlan = rs.Plan
		if rs, err = dc.run(gridReadQuery); err != nil {
			return nil, err
		}
		pt.dualCostRead = rs.SimSeconds
		points = append(points, pt)
	}
	return points, nil
}

func sweepResult(id, title string, points []sweepPoint, col func(sweepPoint) []string, header []string, notes ...string) *Result {
	res := &Result{ID: id, Title: title, Header: append([]string{"ratio"}, header...), Notes: notes}
	for _, pt := range points {
		row := append([]string{fmt.Sprintf("%d/36", pt.n)}, col(pt)...)
		res.Rows = append(res.Rows, row)
	}
	return res
}

func runFig5(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	points, err := gridDMLSweep(cfg, true)
	if err != nil {
		return nil, err
	}
	return sweepResult("fig5", "UPDATE run time vs ratio (grid workload)", points,
		func(p sweepPoint) []string {
			return []string{secs(p.hive), secs(p.dualEdit), secs(p.dualCost), p.dualCostPlan}
		},
		[]string{"hive (sim s)", "dual EDIT (sim s)", "dual cost-model (sim s)", "plan"},
		"paper: Hive flat; EDIT grows with ratio; cost model switches to OVERWRITE at 6/36"), nil
}

func runFig6(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	points, err := gridDMLSweep(cfg, false)
	if err != nil {
		return nil, err
	}
	return sweepResult("fig6", "DELETE run time vs ratio (grid workload)", points,
		func(p sweepPoint) []string {
			return []string{secs(p.hive), secs(p.dualEdit), secs(p.dualCost), p.dualCostPlan}
		},
		[]string{"hive (sim s)", "dual EDIT (sim s)", "dual cost-model (sim s)", "plan"},
		"paper: Hive decreases with ratio (less data rewritten); cost model switches at 10/36"), nil
}

func runFig7(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	points, err := gridDMLSweep(cfg, true)
	if err != nil {
		return nil, err
	}
	return sweepResult("fig7", "SELECT after UPDATE (UnionRead overhead)", points,
		func(p sweepPoint) []string {
			return []string{secs(p.hiveRead), secs(p.dualEditRead)}
		},
		[]string{"hive read (sim s)", "dual UnionRead (sim s)"},
		"paper: Hive flat; UnionRead grows with attached-table size, up to 2.7x at 18/36"), nil
}

func runFig8(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	points, err := gridDMLSweep(cfg, true)
	if err != nil {
		return nil, err
	}
	return sweepResult("fig8", "UPDATE + following SELECT total", points,
		func(p sweepPoint) []string {
			return []string{
				secs(p.hive + p.hiveRead),
				secs(p.dualEdit + p.dualEditRead),
				secs(p.dualCost + p.dualCostRead),
			}
		},
		[]string{"hive+read (sim s)", "dual EDIT+UnionRead (sim s)", "dual cost-model+read (sim s)"}), nil
}

func runFig9(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	points, err := gridDMLSweep(cfg, false)
	if err != nil {
		return nil, err
	}
	return sweepResult("fig9", "SELECT after DELETE (UnionRead overhead)", points,
		func(p sweepPoint) []string {
			return []string{secs(p.hiveRead), secs(p.dualEditRead)}
		},
		[]string{"hive read (sim s)", "dual UnionRead (sim s)"},
		"paper: Hive read shrinks with delete ratio; UnionRead keeps reading full master plus markers"), nil
}

func runFig10(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	points, err := gridDMLSweep(cfg, false)
	if err != nil {
		return nil, err
	}
	return sweepResult("fig10", "DELETE + following SELECT total", points,
		func(p sweepPoint) []string {
			return []string{
				secs(p.hive + p.hiveRead),
				secs(p.dualEdit + p.dualEditRead),
				secs(p.dualCost + p.dualCostRead),
			}
		},
		[]string{"hive+read (sim s)", "dual EDIT+UnionRead (sim s)", "dual cost-model+read (sim s)"}), nil
}

func runTable4(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	tables := workload.GridTablesIII()
	res := &Result{
		ID:    "table4",
		Title: "Real State Grid statements",
		Header: []string{"stmt", "ratio", "hive (sim s)", "dual (sim s)", "improvement",
			"plan", "paper hive (s)", "paper dual (s)", "paper improvement"},
	}
	hiveEnv, err := newGridEnv(cfg, "ORC", tables)
	if err != nil {
		return nil, err
	}
	dualEnv, err := newGridEnv(cfg, "DUALTABLE", tables)
	if err != nil {
		return nil, err
	}
	dualEnv.vars.Set(hive.VarFollowingReads, "1")
	for _, stmt := range workload.TableIV() {
		h, err := hiveEnv.run(stmt.SQL)
		if err != nil {
			return nil, fmt.Errorf("%s on hive: %w", stmt.ID, err)
		}
		if err := dualEnv.hintRatio(stmt.SQL, stmt.Ratio); err != nil {
			return nil, err
		}
		d, err := dualEnv.run(stmt.SQL)
		if err != nil {
			return nil, fmt.Errorf("%s on dualtable: %w", stmt.ID, err)
		}
		res.Rows = append(res.Rows, []string{
			stmt.ID, ratioPct(stmt.Ratio), secs(h.SimSeconds), secs(d.SimSeconds),
			fmt.Sprintf("%.0f%%", 100*h.SimSeconds/d.SimSeconds),
			d.Plan,
			secs(stmt.PaperHive), secs(stmt.PaperDual),
			fmt.Sprintf("%.0f%%", 100*stmt.PaperHive/stmt.PaperDual),
		})
	}
	res.Notes = append(res.Notes,
		"paper: DualTable beats Hive 173%–976% across all 8 statements; cost model picks EDIT for every one")
	return res, nil
}
