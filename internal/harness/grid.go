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
	if err := workload.SetupGrid(e.db.Engine, g, tables); err != nil {
		return nil, err
	}
	return e, nil
}

func init() {
	register(Experiment{ID: "table1", Title: "Ratio of DML operations in grid scenarios (paper Table I)", Run: runTable1})
	register(Experiment{ID: "fig4", Title: "Read performance, empty attached table (paper Fig. 4)", Run: runFig4})
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

// gridSet is the grid sweep of Figs. 5–10: n of the 36 days of
// tj_gbsjwzl_mx modified, then a full scan with real column reads.
var gridSet = &dataSet{
	points: []int{1, 3, 5, 7, 9, 11, 13, 15, 17},
	quick:  []int{1, 9, 17},
	label:  func(n int) string { return fmt.Sprintf("%d/36", n) },
	ratio:  func(n int) float64 { return float64(n) / 36 },
	update: func(n int) string { return workload.GridUpdateByDays("tj_gbsjwzl_mx", n) },
	delete: func(n int) string { return workload.GridDeleteByDays("tj_gbsjwzl_mx", n) },
	read:   "SELECT COUNT(*), SUM(yhlx) FROM tj_gbsjwzl_mx",
	newEnv: func(cfg Config, storage string) (*env, error) {
		return newGridEnv(cfg, storage, workload.GridTablesII()[4:5])
	},
}

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
	dualEnv.sess.Set(hive.VarFollowingReads, "1")
	for _, stmt := range workload.TableIV() {
		h, err := hiveEnv.run(stmt.SQL)
		if err != nil {
			return nil, fmt.Errorf("%s on hive: %w", stmt.ID, err)
		}
		if err := dualEnv.sess.SetRatioHint(stmt.SQL, stmt.Ratio); err != nil {
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
