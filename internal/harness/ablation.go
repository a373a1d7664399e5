package harness

import (
	"fmt"

	"dualtable/internal/hive"
	"dualtable/internal/sim"
	"dualtable/internal/workload"
)

func init() {
	register(Experiment{ID: "ablacid", Title: "Ablation: DualTable vs Hive-ACID-style base+delta (§V-C)", Run: runAblAcid})
	register(Experiment{ID: "ablunion", Title: "Ablation: UNION READ merge vs per-row random gets", Run: runAblUnion})
}

// runAblAcid quantifies the paper's §V-C conceptual comparison: apply
// the same update stream to a DualTable and to an ACID base+delta
// table, reading after each batch.
func runAblAcid(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	t := tpchCfg(cfg)
	build := func(storage string) (*env, error) {
		e, err := newEnv(sim.TPCHCluster(), cfg, float64(t.LineitemRows)/180e6)
		if err != nil {
			return nil, err
		}
		tc := t
		tc.Storage = storage
		return e, workload.SetupTPCH(e.db.Engine, tc)
	}
	dual, err := build("DUALTABLE")
	if err != nil {
		return nil, err
	}
	dual.sess.Set(hive.VarForcePlan, "EDIT") // isolate the delta mechanisms
	ac, err := build("ACID")
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "ablacid",
		Title:  "DualTable (EDIT) vs ACID base+delta under repeated 1% updates",
		Header: []string{"batch", "dual update (sim s)", "acid update (sim s)", "dual read (sim s)", "acid read (sim s)"},
	}
	batches := 5
	if cfg.Quick {
		batches = 3
	}
	for b := 0; b < batches; b++ {
		sql := fmt.Sprintf("UPDATE lineitem SET l_comment = 'b%d' WHERE l_partkey %% 100 = %d", b, b)
		du, err := dual.run(sql)
		if err != nil {
			return nil, err
		}
		au, err := ac.run(sql)
		if err != nil {
			return nil, err
		}
		dr, err := dual.run(tpchReadQuery)
		if err != nil {
			return nil, err
		}
		ar, err := ac.run(tpchReadQuery)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(b + 1), secs(du.SimSeconds), secs(au.SimSeconds),
			secs(dr.SimSeconds), secs(ar.SimSeconds),
		})
	}
	res.Notes = append(res.Notes,
		"ACID ships the whole record per update and re-reads every delta per scan; DualTable ships changed cells and merge-joins one sorted range")
	return res, nil
}

// runAblUnion compares the merge-join UNION READ against a
// hypothetical per-row random-get strategy, computed from the cost
// model's rates — the design argument of §V-B.
func runAblUnion(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	p := sim.GridCluster()
	rows := 239e6 // mx table, paper scale
	res := &Result{
		ID:     "ablunion",
		Title:  "UNION READ merge join vs per-row random gets (analytical, grid cluster rates)",
		Header: []string{"updated ratio", "merge join (s)", "random gets (s)"},
	}
	for _, ratio := range []float64{0.01, 0.05, 0.25, 0.5} {
		attRows := ratio * rows
		attBytes := attRows * 40
		// Merge join: one sorted scan of the attached range.
		merge := p.PlanSeconds(sim.Quantities{sim.KVReadBytes: attBytes})
		// Random gets: one RPC per master row (to probe for edits).
		gets := p.PlanSeconds(sim.Quantities{sim.KVGets: rows})
		res.Rows = append(res.Rows, []string{
			pct(ratio), fmt.Sprintf("%.1f", merge), fmt.Sprintf("%.0f", gets),
		})
	}
	res.Notes = append(res.Notes,
		"sorted record IDs make UNION READ linear in the attached size; probing HBase per master row would cost orders of magnitude more")
	return res, nil
}
