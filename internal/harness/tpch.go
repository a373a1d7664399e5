package harness

import (
	"fmt"

	"dualtable/internal/costmodel"
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
	if err := workload.SetupTPCH(e.db.Engine, t); err != nil {
		return nil, err
	}
	return e, nil
}

func init() {
	register(Experiment{ID: "fig11", Title: "TPC-H read performance on three systems (paper Fig. 11)", Run: runFig11})
	register(Experiment{ID: "fig12", Title: "TPC-H DML performance on three systems (paper Fig. 12)", Run: runFig12})
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

// tpchSet is the lineitem sweep of Figs. 13–18: p % of the part keys
// modified, then a full scan.
var tpchSet = &dataSet{
	points: []int{1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50},
	quick:  []int{1, 25, 50},
	label:  func(p int) string { return fmt.Sprintf("%d%%", p) },
	ratio:  func(p int) float64 { return float64(p) / 100 },
	update: func(p int) string {
		return fmt.Sprintf("UPDATE lineitem SET l_comment = 'swept' WHERE l_partkey %% 100 < %d", p)
	},
	delete: func(p int) string { return fmt.Sprintf("DELETE FROM lineitem WHERE l_partkey %% 100 < %d", p) },
	read:   tpchReadQuery,
	newEnv: newTPCHEnv,
}

const tpchReadQuery = "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem"

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
