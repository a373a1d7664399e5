package harness

import (
	"fmt"

	"dualtable/internal/costmodel"
	"dualtable/internal/hive"
	"dualtable/internal/sim"
	"dualtable/internal/workload"
)

func tpchCfg(cfg Config) workload.TPCHConfig {
	t := workload.DefaultTPCHConfig()
	// Paper: 0.18 B lineitem rows, 45 M orders (30 GB). Scale down,
	// preserving the 4:1 row ratio.
	t.LineitemRows = int(180e6 * cfg.Scale)
	if cfg.Quick {
		t.LineitemRows /= 8
	}
	if t.LineitemRows < 2000 {
		t.LineitemRows = 2000
	}
	t.OrdersRows = t.LineitemRows / 4
	t.Seed = cfg.Seed
	return t
}

// newTPCHEnv builds one system loaded with lineitem/orders.
func newTPCHEnv(cfg Config, storage string) (*env, error) {
	t := tpchCfg(cfg)
	e, err := newEnv(sim.TPCHCluster(), cfg, float64(t.LineitemRows)/180e6)
	if err != nil {
		return nil, err
	}
	t.Storage = storage
	if err := workload.SetupTPCH(e.engine, t); err != nil {
		return nil, err
	}
	return e, nil
}

func init() {
	register(Experiment{ID: "fig11", Title: "TPC-H read performance on three systems (paper Fig. 11)", Run: runFig11})
	register(Experiment{ID: "fig12", Title: "TPC-H DML performance on three systems (paper Fig. 12)", Run: runFig12})
	register(Experiment{ID: "fig13", Title: "UPDATE sweep 1–50% on lineitem (paper Fig. 13)", Run: runFig13})
	register(Experiment{ID: "fig14", Title: "DELETE sweep 1–50% on lineitem (paper Fig. 14)", Run: runFig14})
	register(Experiment{ID: "fig15", Title: "Read overhead after UPDATE (paper Fig. 15)", Run: runFig15})
	register(Experiment{ID: "fig16", Title: "UPDATE + successive read (paper Fig. 16)", Run: runFig16})
	register(Experiment{ID: "fig17", Title: "Read overhead after DELETE (paper Fig. 17)", Run: runFig17})
	register(Experiment{ID: "fig18", Title: "DELETE + successive read (paper Fig. 18)", Run: runFig18})
	register(Experiment{ID: "excost", Title: "Worked cost-model example of §IV", Run: runExCost})
}

func runFig11(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	res := &Result{
		ID:     "fig11",
		Title:  "TPC-H read performance (attached table empty)",
		Header: []string{"system", "query-a (sim s)", "query-b (sim s)", "query-c (sim s)"},
	}
	for _, sys := range []struct {
		name    string
		storage string
	}{
		{"Hive(HDFS)", "ORC"},
		{"Hive(HBase)", "HBASE"},
		{"DualTable", "DUALTABLE"},
	} {
		e, err := newTPCHEnv(cfg, sys.storage)
		if err != nil {
			return nil, err
		}
		var times []string
		for _, q := range []string{workload.QueryA, workload.QueryB, workload.QueryC} {
			rs, err := e.run(q)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sys.name, err)
			}
			times = append(times, secs(rs.SimSeconds))
		}
		res.Rows = append(res.Rows, append([]string{sys.name}, times...))
	}
	res.Notes = append(res.Notes,
		"paper: Hive(HBase) slowest on every query; DualTable overhead vs Hive(HDFS) negligible")
	return res, nil
}

func runFig12(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	res := &Result{
		ID:     "fig12",
		Title:  "TPC-H DML performance",
		Header: []string{"system", "dml-a upd 5% li (sim s)", "dml-b del 2% li (sim s)", "dml-c join-upd 16% ord (sim s)"},
	}
	for _, sys := range []struct {
		name    string
		storage string
	}{
		{"Hive(HDFS)", "ORC"},
		{"Hive(HBase)", "HBASE"},
		{"DualTable", "DUALTABLE"},
	} {
		var times []string
		for _, dml := range []string{workload.DMLA, workload.DMLB, workload.DMLC} {
			// Fresh data per statement so each DML sees the pristine
			// table (the paper starts each with an empty attached
			// table).
			e, err := newTPCHEnv(cfg, sys.storage)
			if err != nil {
				return nil, err
			}
			rs, err := e.run(dml)
			if err != nil {
				return nil, fmt.Errorf("%s %q: %w", sys.name, dml[:20], err)
			}
			times = append(times, secs(rs.SimSeconds))
		}
		res.Rows = append(res.Rows, append([]string{sys.name}, times...))
	}
	res.Notes = append(res.Notes,
		"paper: DualTable most efficient on all three (avoids Hive's rewrite, reads faster than HBase)")
	return res, nil
}

// tpchSweep runs the Fig. 13–18 ratio sweeps on lineitem.
type tpchPoint struct {
	pctv         int
	hive         float64
	dualEdit     float64
	dualCost     float64
	dualCostPlan string
	hiveRead     float64
	dualEditRead float64
	dualCostRead float64
}

const tpchReadQuery = "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem"

func tpchSweep(cfg Config, update bool) ([]tpchPoint, error) {
	var points []tpchPoint
	for _, p := range tpchRatioPoints(cfg.Quick) {
		pt := tpchPoint{pctv: p}
		var sql string
		if update {
			sql = fmt.Sprintf("UPDATE lineitem SET l_comment = 'swept' WHERE l_partkey %% 100 < %d", p)
		} else {
			sql = fmt.Sprintf("DELETE FROM lineitem WHERE l_partkey %% 100 < %d", p)
		}
		h, err := newTPCHEnv(cfg, "ORC")
		if err != nil {
			return nil, err
		}
		rs, err := h.run(sql)
		if err != nil {
			return nil, err
		}
		pt.hive = rs.SimSeconds
		if rs, err = h.run(tpchReadQuery); err != nil {
			return nil, err
		}
		pt.hiveRead = rs.SimSeconds

		de, err := newTPCHEnv(cfg, "DUALTABLE")
		if err != nil {
			return nil, err
		}
		de.vars.Set(hive.VarFollowingReads, "0")
		de.vars.Set(hive.VarForcePlan, "EDIT")
		if rs, err = de.run(sql); err != nil {
			return nil, err
		}
		pt.dualEdit = rs.SimSeconds
		if rs, err = de.run(tpchReadQuery); err != nil {
			return nil, err
		}
		pt.dualEditRead = rs.SimSeconds

		dc, err := newTPCHEnv(cfg, "DUALTABLE")
		if err != nil {
			return nil, err
		}
		dc.vars.Set(hive.VarFollowingReads, "0")
		if err := dc.hintRatio(sql, float64(p)/100); err != nil {
			return nil, err
		}
		if rs, err = dc.run(sql); err != nil {
			return nil, err
		}
		pt.dualCost = rs.SimSeconds
		pt.dualCostPlan = rs.Plan
		if rs, err = dc.run(tpchReadQuery); err != nil {
			return nil, err
		}
		pt.dualCostRead = rs.SimSeconds
		points = append(points, pt)
	}
	return points, nil
}

func tpchSweepResult(id, title string, points []tpchPoint, col func(tpchPoint) []string, header []string, notes ...string) *Result {
	res := &Result{ID: id, Title: title, Header: append([]string{"ratio"}, header...), Notes: notes}
	for _, pt := range points {
		res.Rows = append(res.Rows, append([]string{fmt.Sprintf("%d%%", pt.pctv)}, col(pt)...))
	}
	return res
}

func runFig13(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	points, err := tpchSweep(cfg, true)
	if err != nil {
		return nil, err
	}
	return tpchSweepResult("fig13", "UPDATE run time vs ratio (lineitem)", points,
		func(p tpchPoint) []string {
			return []string{secs(p.hive), secs(p.dualEdit), secs(p.dualCost), p.dualCostPlan}
		},
		[]string{"hive (sim s)", "dual EDIT (sim s)", "dual cost-model (sim s)", "plan"},
		"paper: crossover at ≈35% update ratio; cost model switches plans there"), nil
}

func runFig14(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	points, err := tpchSweep(cfg, false)
	if err != nil {
		return nil, err
	}
	return tpchSweepResult("fig14", "DELETE run time vs ratio (lineitem)", points,
		func(p tpchPoint) []string {
			return []string{secs(p.hive), secs(p.dualEdit), secs(p.dualCost), p.dualCostPlan}
		},
		[]string{"hive (sim s)", "dual EDIT (sim s)", "dual cost-model (sim s)", "plan"},
		"paper: Hive cheapens as ratio grows; crossover below the update crossover"), nil
}

func runFig15(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	points, err := tpchSweep(cfg, true)
	if err != nil {
		return nil, err
	}
	return tpchSweepResult("fig15", "Full-scan read after UPDATE (no cost model)", points,
		func(p tpchPoint) []string {
			return []string{secs(p.hiveRead), secs(p.dualEditRead)}
		},
		[]string{"hive read (sim s)", "dual UnionRead (sim s)"},
		"paper: UnionRead overhead linear in attached-table size"), nil
}

func runFig16(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	points, err := tpchSweep(cfg, true)
	if err != nil {
		return nil, err
	}
	return tpchSweepResult("fig16", "UPDATE + successive read total", points,
		func(p tpchPoint) []string {
			return []string{
				secs(p.hive + p.hiveRead),
				secs(p.dualEdit + p.dualEditRead),
				secs(p.dualCost + p.dualCostRead),
			}
		},
		[]string{"hive+read (sim s)", "dual EDIT+UnionRead (sim s)", "dual cost-model+read (sim s)"},
		"paper: crossover slightly below 35% once the read is included"), nil
}

func runFig17(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	points, err := tpchSweep(cfg, false)
	if err != nil {
		return nil, err
	}
	return tpchSweepResult("fig17", "Full-scan read after DELETE (no cost model)", points,
		func(p tpchPoint) []string {
			return []string{secs(p.hiveRead), secs(p.dualEditRead)}
		},
		[]string{"hive read (sim s)", "dual UnionRead (sim s)"},
		"paper: Hive reads less data as the ratio grows; DualTable keeps masters plus markers"), nil
}

func runFig18(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	points, err := tpchSweep(cfg, false)
	if err != nil {
		return nil, err
	}
	return tpchSweepResult("fig18", "DELETE + successive read total", points,
		func(p tpchPoint) []string {
			return []string{
				secs(p.hive + p.hiveRead),
				secs(p.dualEdit + p.dualEditRead),
				secs(p.dualCost + p.dualCostRead),
			}
		},
		[]string{"hive+read (sim s)", "dual EDIT+UnionRead (sim s)", "dual cost-model+read (sim s)"},
		"paper: below ≈30% delete ratio DualTable is always more efficient"), nil
}

func runExCost(cfg Config) (*Result, error) {
	// §IV worked example: D = 100 GB, α = 0.01, k = 30, HDFS write
	// 1 GB/s, HBase write 0.8 GB/s, read 0.5 GB/s → CostU = 38.75 s.
	res := &Result{
		ID:     "excost",
		Title:  "Worked cost-model example (§IV)",
		Header: []string{"quantity", "value"},
	}
	p, w := costmodel.WorkedExample()
	costU := costmodel.New(p).UpdateCost(w)
	res.Rows = append(res.Rows,
		[]string{"D", "100 GB"},
		[]string{"α", "0.01"},
		[]string{"k", "30"},
		[]string{"CostU (paper)", "38.75 s"},
		[]string{"CostU (computed)", fmt.Sprintf("%.2f s", costU)},
		[]string{"chosen plan", "EDIT (CostU > 0)"},
	)
	return res, nil
}
