// Package costmodel implements the paper's §IV cost model: the
// run-time choice between the OVERWRITE plan (rewrite the whole
// master table with INSERT OVERWRITE) and the EDIT plan (write
// per-record modification information into the attached table).
//
// The model compares, for a table of size D read k times after the
// modification:
//
//	UPDATE (eq. 1):
//	  CostU = C^M_Write(D) − α·(C^A_Write(D) + k·C^A_Read(D))
//
//	DELETE (eq. 2):
//	  CostD = C^M_Write(D) − β·(C^M_Write(D) + k·C^M_Read(D)
//	          + (m/d)·C^A_Write(D) + k·(m/d)·C^A_Read(D))
//
// CostU/CostD > 0 means the EDIT plan is cheaper. The model predicts
// what each plan performs — bytes written and read, records put, jobs
// launched — as sim.Quantities, and prices them with the cluster's
// sim.CostParams, the one pricing function the engine's meters are
// priced by too. α and β come from historical statistics, column
// statistics, or designer hints — exactly the sources §IV lists.
package costmodel

import (
	"sync"

	"dualtable/internal/sim"
)

// Plan is the physical plan choice for UPDATE/DELETE.
type Plan int

// Plans.
const (
	// PlanEdit writes modification info to the attached table.
	PlanEdit Plan = iota
	// PlanOverwrite rewrites the master table via INSERT OVERWRITE.
	PlanOverwrite
)

// String names the plan.
func (p Plan) String() string {
	if p == PlanEdit {
		return "EDIT"
	}
	return "OVERWRITE"
}

// Workload describes one UPDATE or DELETE decision point.
type Workload struct {
	// TableBytes is D, the master table size.
	TableBytes int64
	// TableRows is the row count (for per-op costs).
	TableRows int64
	// Ratio is α (update) or β (delete) in (0, 1].
	Ratio float64
	// FollowingReads is k, the number of whole-table reads expected
	// after the modification.
	FollowingReads float64
	// AvgRowBytes is d, the average row size.
	AvgRowBytes float64
	// MarkerBytes is m, the delete-marker size (DELETE model only).
	MarkerBytes float64
	// UpdatedBytesPerRow is the payload written per updated row (the
	// changed cells); defaults to AvgRowBytes when zero.
	UpdatedBytesPerRow float64
}

// Model evaluates the §IV equations on one cluster's parameters.
type Model struct {
	Params sim.CostParams
}

// New builds a model that prices plans at the cluster's rates.
func New(p sim.CostParams) *Model {
	return &Model{Params: p}
}

// WorkedExample returns §IV's worked example: D = 100 GB of which
// α = 0.01 is updated and then read k = 30 times, on a cluster writing
// HDFS at 1 GB/s, writing HBase at 0.8 GB/s and reading it at 0.5 GB/s.
// Per-operation costs are zero and the cluster has one map slot, so
// the closed form holds: CostU = 100 − 0.01·(100/0.8 + 30·100/0.5) =
// 38.75 s, and EDIT wins.
func WorkedExample() (sim.CostParams, Workload) {
	p := sim.CostParams{
		Name: "paper-§IV", Nodes: 2, MapSlotsPerNode: 1, DataScale: 1,
		DFSSeqReadBps: 2e9, DFSSeqWriteBps: 1e9, KVReadBps: 0.5e9, KVWriteBps: 0.8e9,
	}
	w := Workload{
		TableBytes: 100e9, TableRows: 1, Ratio: 0.01, FollowingReads: 30,
		AvgRowBytes: 100e9, // αD = 1 GB of attached I/O, as the paper has it
	}
	return p, w
}

// UpdateCost returns CostU = Cost(OVERWRITE) − Cost(EDIT) for an
// UPDATE (equation 1), in seconds. Positive means EDIT is cheaper.
func (m *Model) UpdateCost(w Workload) float64 {
	d := float64(w.TableBytes)
	upBytes := w.UpdatedBytesPerRow
	if upBytes <= 0 {
		upBytes = w.AvgRowBytes
	}
	editRecords := w.Ratio * float64(w.TableRows)
	editBytes := editRecords * upBytes

	// OVERWRITE writes D in one more job; both plans read D k times,
	// so k·C^M_Read(D) cancels.
	overwrite := sim.Quantities{sim.Jobs: 1, sim.DFSWriteBytes: d}
	// EDIT puts the changed cells and merges them into each of the k
	// reads.
	edit := sim.Quantities{sim.KVPuts: editRecords, sim.KVPutBytes: editBytes, sim.KVReadBytes: w.FollowingReads * editBytes}
	return m.Params.PlanSeconds(overwrite) - m.Params.PlanSeconds(edit)
}

// DeleteCost returns CostD = Cost(OVERWRITE) − Cost(EDIT) for a
// DELETE (equation 2), in seconds. Positive means EDIT is cheaper.
func (m *Model) DeleteCost(w Workload) float64 {
	d := float64(w.TableBytes)
	marker := w.MarkerBytes
	if marker <= 0 {
		marker = 16
	}
	delRecords := w.Ratio * float64(w.TableRows)
	markerBytes := delRecords * marker
	kept := (1 - w.Ratio) * d

	// OVERWRITE writes (1−β)D in one more job and reads (1−β)D k times.
	overwrite := sim.Quantities{sim.Jobs: 1, sim.DFSWriteBytes: kept, sim.DFSReadBytes: w.FollowingReads * kept}
	// EDIT puts the markers and keeps reading the full master table,
	// merged with them.
	edit := sim.Quantities{sim.KVPuts: delRecords, sim.KVPutBytes: markerBytes,
		sim.KVReadBytes: w.FollowingReads * markerBytes, sim.DFSReadBytes: w.FollowingReads * d}
	return m.Params.PlanSeconds(overwrite) - m.Params.PlanSeconds(edit)
}

// ChooseUpdate picks the plan for an UPDATE.
func (m *Model) ChooseUpdate(w Workload) (Plan, float64) { return choose(m.UpdateCost(w)) }

// ChooseDelete picks the plan for a DELETE.
func (m *Model) ChooseDelete(w Workload) (Plan, float64) { return choose(m.DeleteCost(w)) }

// choose picks EDIT when the cost difference favours it.
func choose(c float64) (Plan, float64) {
	if c > 0 {
		return PlanEdit, c
	}
	return PlanOverwrite, c
}

// UpdateCrossover returns the ratio α* where the UPDATE plans break
// even (CostU = 0) for the given workload shape, found by bisection.
func (m *Model) UpdateCrossover(w Workload) float64 { return bisectRatio(w, m.UpdateCost) }

// DeleteCrossover returns β* where the DELETE plans break even.
func (m *Model) DeleteCrossover(w Workload) float64 { return bisectRatio(w, m.DeleteCost) }

// bisectRatio finds the ratio in (0, 1) at which cost, evaluated on w
// with that ratio, is zero; cost is expected to be decreasing in the
// ratio. Returns 1 if EDIT always wins, 0 if OVERWRITE always wins.
func bisectRatio(w Workload, cost func(Workload) float64) float64 {
	f := func(r float64) float64 {
		w.Ratio = r
		return cost(w)
	}
	lo, hi := 1e-9, 1.0
	if f(lo) <= 0 {
		return 0
	}
	if f(hi) >= 0 {
		return 1
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// ---- Ratio estimation (§IV: "estimated using historical analysis of
// the execution log or given directly by the designer") ----

// RatioEstimator tracks observed modification ratios per (table,
// statement fingerprint) and answers estimates with fallbacks:
// historical average > column-statistics estimate > conservative
// default. A designer-given ratio (§IV) is a session setting
// (hive.SessionVars.SetRatioHint) and never reaches the estimator.
type RatioEstimator struct {
	mu      sync.Mutex
	history map[string][]float64
}

const (
	// defaultRatio is used with no other signal (conservative: small,
	// favoring EDIT, mirroring the paper's observation that real
	// modification ratios are mostly below 10%).
	defaultRatio = 0.05
	// maxHistory bounds the per-key window.
	maxHistory = 32
)

// NewRatioEstimator builds an estimator with the paper-informed
// default of 5%.
func NewRatioEstimator() *RatioEstimator {
	return &RatioEstimator{history: map[string][]float64{}}
}

// Observe records the true ratio measured after executing a
// statement.
func (r *RatioEstimator) Observe(key string, ratio float64) {
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := append(r.history[key], ratio)
	if len(h) > maxHistory {
		h = h[len(h)-maxHistory:]
	}
	r.history[key] = h
}

// Estimate returns the ratio estimate and its source.
func (r *RatioEstimator) Estimate(key string, statsEstimate float64) (float64, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.history[key]; len(h) > 0 {
		var sum float64
		for _, v := range h {
			sum += v
		}
		return sum / float64(len(h)), "history"
	}
	if statsEstimate >= 0 {
		return statsEstimate, "stats"
	}
	return defaultRatio, "default"
}

// HistoryLen reports how many observations exist for a key.
func (r *RatioEstimator) HistoryLen(key string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.history[key])
}
