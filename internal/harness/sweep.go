package harness

import (
	"sync"

	"dualtable/internal/hive"
)

// dataSet is a table the ratio sweeps of §VI run on: the grid's
// tj_gbsjwzl_mx (Figs. 5–10) or TPC-H lineitem (Figs. 13–18).
type dataSet struct {
	// points are the sweep's ratio points (quick: the smoke-test
	// subset); label renders one and ratio is the modification ratio the
	// cost model is hinted at it (the designer-given α/β of §IV).
	points, quick []int
	label         func(p int) string
	ratio         func(p int) float64
	// update and delete build the statement swept at a point; read is
	// the full scan that follows it.
	update, delete func(p int) string
	read           string
	// newEnv builds one system with the data set loaded.
	newEnv func(cfg Config, storage string) (*env, error)
}

// timing is one system's DML and the read that follows it.
type timing struct{ dml, read float64 }

// sweepPoint is one ratio point of a sweep on the three systems:
// Hive(HDFS) rewriting, DualTable forced to EDIT, and DualTable with
// the cost model (plan is what it chose).
type sweepPoint struct {
	label            string
	hive, edit, cost timing
	plan             string
}

// sweepKey names one sweep: each figure's view of it reads the same
// points.
type sweepKey struct {
	set    *dataSet
	update bool
	cfg    Config
}

var (
	sweepMu sync.Mutex
	sweeps  = map[sweepKey][]sweepPoint{}
)

// sweep runs (once per key) one data set's UPDATE or DELETE sweep: per
// ratio point, a fresh system per storage runs the statement, then the
// data set's read.
func sweep(cfg Config, set *dataSet, update bool) ([]sweepPoint, error) {
	key := sweepKey{set, update, cfg}
	sweepMu.Lock()
	defer sweepMu.Unlock()
	if points, ok := sweeps[key]; ok {
		return points, nil
	}
	ps, stmt := set.points, set.delete
	if cfg.Quick {
		ps = set.quick
	}
	if update {
		stmt = set.update
	}
	var points []sweepPoint
	for _, p := range ps {
		sql := stmt(p)
		pt := sweepPoint{label: set.label(p)}
		var err error
		if pt.hive, _, err = set.measure(cfg, "ORC", sql, nil); err != nil {
			return nil, err
		}
		if pt.edit, _, err = set.measure(cfg, "DUALTABLE", sql, func(e *env) error {
			e.sess.Set(hive.VarFollowingReads, "0")
			e.sess.Set(hive.VarForcePlan, "EDIT")
			return nil
		}); err != nil {
			return nil, err
		}
		if pt.cost, pt.plan, err = set.measure(cfg, "DUALTABLE", sql, func(e *env) error {
			e.sess.Set(hive.VarFollowingReads, "0")
			return e.sess.SetRatioHint(sql, set.ratio(p))
		}); err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	sweeps[key] = points
	return points, nil
}

// measure builds a fresh system of the given storage, applies its
// session settings (if any), and times sql and the read after it. It
// returns the plan sql ran under.
func (set *dataSet) measure(cfg Config, storage, sql string, settings func(*env) error) (timing, string, error) {
	e, err := set.newEnv(cfg, storage)
	if err != nil {
		return timing{}, "", err
	}
	if settings != nil {
		if err := settings(e); err != nil {
			return timing{}, "", err
		}
	}
	dml, err := e.run(sql)
	if err != nil {
		return timing{}, "", err
	}
	read, err := e.run(set.read)
	if err != nil {
		return timing{}, "", err
	}
	return timing{dml.SimSeconds, read.SimSeconds}, dml.Plan, nil
}

// view is one of the three ways §VI plots a sweep: the DML times, the
// read after the DML, or their sum.
type view struct {
	header []string
	cells  func(p sweepPoint) []string
}

var (
	dmlView = view{
		[]string{"hive (sim s)", "dual EDIT (sim s)", "dual cost-model (sim s)", "plan"},
		func(p sweepPoint) []string {
			return []string{secs(p.hive.dml), secs(p.edit.dml), secs(p.cost.dml), p.plan}
		},
	}
	readView = view{
		[]string{"hive read (sim s)", "dual UnionRead (sim s)"},
		func(p sweepPoint) []string { return []string{secs(p.hive.read), secs(p.edit.read)} },
	}
	totalView = view{
		[]string{"hive+read (sim s)", "dual EDIT+UnionRead (sim s)", "dual cost-model+read (sim s)"},
		func(p sweepPoint) []string {
			return []string{secs(p.hive.dml + p.hive.read), secs(p.edit.dml + p.edit.read), secs(p.cost.dml + p.cost.read)}
		},
	}
)

// figure is one of the twelve sweep figures: a view of one sweep.
type figure struct {
	id, title, result string // registry title, result title
	set               *dataSet
	update            bool
	view              view
	note              string
}

var figures = []figure{
	{"fig5", "UPDATE performance vs modification ratio (paper Fig. 5)", "UPDATE run time vs ratio (grid workload)", gridSet, true, dmlView,
		"paper: Hive flat; EDIT grows with ratio; cost model switches to OVERWRITE at 6/36"},
	{"fig6", "DELETE performance vs modification ratio (paper Fig. 6)", "DELETE run time vs ratio (grid workload)", gridSet, false, dmlView,
		"paper: Hive decreases with ratio (less data rewritten); cost model switches at 10/36"},
	{"fig7", "SELECT after UPDATE — UnionRead overhead (paper Fig. 7)", "SELECT after UPDATE (UnionRead overhead)", gridSet, true, readView,
		"paper: Hive flat; UnionRead grows with attached-table size, up to 2.7x at 18/36"},
	{"fig8", "UPDATE + following SELECT total (paper Fig. 8)", "UPDATE + following SELECT total", gridSet, true, totalView, ""},
	{"fig9", "SELECT after DELETE (paper Fig. 9)", "SELECT after DELETE (UnionRead overhead)", gridSet, false, readView,
		"paper: Hive read shrinks with delete ratio; UnionRead keeps reading full master plus markers"},
	{"fig10", "DELETE + following SELECT total (paper Fig. 10)", "DELETE + following SELECT total", gridSet, false, totalView, ""},
	{"fig13", "UPDATE sweep 1–50% on lineitem (paper Fig. 13)", "UPDATE run time vs ratio (lineitem)", tpchSet, true, dmlView,
		"paper: crossover at ≈35% update ratio; cost model switches plans there"},
	{"fig14", "DELETE sweep 1–50% on lineitem (paper Fig. 14)", "DELETE run time vs ratio (lineitem)", tpchSet, false, dmlView,
		"paper: Hive cheapens as ratio grows; crossover below the update crossover"},
	{"fig15", "Read overhead after UPDATE (paper Fig. 15)", "Full-scan read after UPDATE (no cost model)", tpchSet, true, readView,
		"paper: UnionRead overhead linear in attached-table size"},
	{"fig16", "UPDATE + successive read (paper Fig. 16)", "UPDATE + successive read total", tpchSet, true, totalView,
		"paper: crossover slightly below 35% once the read is included"},
	{"fig17", "Read overhead after DELETE (paper Fig. 17)", "Full-scan read after DELETE (no cost model)", tpchSet, false, readView,
		"paper: Hive reads less data as the ratio grows; DualTable keeps masters plus markers"},
	{"fig18", "DELETE + successive read (paper Fig. 18)", "DELETE + successive read total", tpchSet, false, totalView,
		"paper: below ≈30% delete ratio DualTable is always more efficient"},
}

func init() {
	for _, f := range figures {
		register(Experiment{ID: f.id, Title: f.title, Run: f.run})
	}
}

func (f figure) run(cfg Config) (*Result, error) {
	points, err := sweep(cfg.normalized(), f.set, f.update)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: f.id, Title: f.result, Header: append([]string{"ratio"}, f.view.header...)}
	if f.note != "" {
		res.Notes = []string{f.note}
	}
	for _, p := range points {
		res.Rows = append(res.Rows, append([]string{p.label}, f.view.cells(p)...))
	}
	return res, nil
}
