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
// CostU/CostD > 0 means the EDIT plan is cheaper. Rates are either
// calibrated from the simulated cluster parameters or measured from
// storage metrics; α and β come from historical statistics, column
// statistics, or designer hints — exactly the sources §IV lists.
package costmodel

import (
	"fmt"
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

// Rates holds the calibrated storage throughputs (bytes/second,
// cluster-aggregate) and per-operation costs used by the model.
type Rates struct {
	MasterWriteBps   float64 // C^M_Write rate (HDFS streaming write)
	MasterReadBps    float64 // C^M_Read rate (HDFS streaming read)
	AttachedWriteBps float64 // C^A_Write rate (HBase put path)
	AttachedReadBps  float64 // C^A_Read rate (HBase read path)
	// AttachedPutCost is the per-record overhead of one attached-table
	// put (RPC + WAL). The paper's linear model folds this into the
	// rate; keeping it explicit makes the crossover match the measured
	// figures at small record sizes.
	AttachedPutCost float64
	// AttachedGetCost is the per-record overhead of one random read.
	AttachedGetCost float64
	// OverwriteFixedCost is the fixed cost the OVERWRITE plan pays
	// beyond byte I/O (the extra MapReduce write-job launch). The
	// paper's linear model omits it; including it matters at the
	// simulator's scale where job startup is a visible fraction.
	OverwriteFixedCost float64
}

// RatesFromCluster derives rates from simulated cluster parameters.
// Throughputs are already cluster-aggregate; per-operation costs are
// single-task latencies, so they are divided by the map slot count —
// EDIT-plan puts issue from all map tasks in parallel, and the model
// reasons about aggregate time like the paper's §IV example.
func RatesFromCluster(p sim.CostParams) Rates {
	slots := float64(p.MapSlots())
	if slots < 1 {
		slots = 1
	}
	return Rates{
		MasterWriteBps:     p.DFSSeqWriteBps,
		MasterReadBps:      p.DFSSeqReadBps,
		AttachedWriteBps:   p.KVWriteBps,
		AttachedReadBps:    p.KVReadBps,
		AttachedPutCost:    p.KVPutCost / slots,
		AttachedGetCost:    p.KVGetCost / slots,
		OverwriteFixedCost: p.JobStartupCost,
	}
}

// Validate reports configuration errors.
func (r Rates) Validate() error {
	if r.MasterWriteBps <= 0 || r.MasterReadBps <= 0 ||
		r.AttachedWriteBps <= 0 || r.AttachedReadBps <= 0 {
		return fmt.Errorf("costmodel: all throughput rates must be positive: %+v", r)
	}
	return nil
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

// Model evaluates the §IV equations.
type Model struct {
	Rates Rates
}

// New builds a model from rates.
func New(r Rates) (*Model, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &Model{Rates: r}, nil
}

// masterWrite returns C^M_Write(bytes) in seconds.
func (m *Model) masterWrite(bytes float64) float64 { return bytes / m.Rates.MasterWriteBps }

// masterRead returns C^M_Read(bytes) in seconds.
func (m *Model) masterRead(bytes float64) float64 { return bytes / m.Rates.MasterReadBps }

// attachedWrite returns C^A_Write for n records of payload bytes.
func (m *Model) attachedWrite(bytes, records float64) float64 {
	return bytes/m.Rates.AttachedWriteBps + records*m.Rates.AttachedPutCost
}

// attachedRead returns C^A_Read for n records of payload bytes. Reads
// during UNION READ are merge scans, so the per-record cost uses the
// scan path (no per-get RPC).
func (m *Model) attachedRead(bytes, records float64) float64 {
	return bytes / m.Rates.AttachedReadBps
}

// UpdateCost returns CostU = Cost(OVERWRITE) − Cost(EDIT) for an
// UPDATE (equation 1), in seconds. Positive means EDIT is cheaper.
func (m *Model) UpdateCost(w Workload) float64 {
	d := float64(w.TableBytes)
	rows := float64(w.TableRows)
	upBytes := w.UpdatedBytesPerRow
	if upBytes <= 0 {
		upBytes = w.AvgRowBytes
	}
	editRecords := w.Ratio * rows
	editBytes := editRecords * upBytes

	overwrite := m.masterWrite(d) + m.Rates.OverwriteFixedCost // + k·C^M_Read(D), which cancels
	edit := m.attachedWrite(editBytes, editRecords) +
		w.FollowingReads*m.attachedRead(editBytes, editRecords)
	return overwrite - edit
}

// DeleteCost returns CostD = Cost(OVERWRITE) − Cost(EDIT) for a
// DELETE (equation 2), in seconds. Positive means EDIT is cheaper.
func (m *Model) DeleteCost(w Workload) float64 {
	d := float64(w.TableBytes)
	rows := float64(w.TableRows)
	marker := w.MarkerBytes
	if marker <= 0 {
		marker = 16
	}
	delRecords := w.Ratio * rows
	markerBytes := delRecords * marker

	// OVERWRITE writes (1−β)D and reads (1−β)D for k reads.
	overwrite := m.masterWrite((1-w.Ratio)*d) + m.Rates.OverwriteFixedCost +
		w.FollowingReads*m.masterRead((1-w.Ratio)*d)
	// EDIT writes markers and keeps reading the full master table.
	edit := m.attachedWrite(markerBytes, delRecords) +
		w.FollowingReads*(m.attachedRead(markerBytes, delRecords)+m.masterRead(d))
	return overwrite - edit
}

// ChooseUpdate picks the plan for an UPDATE.
func (m *Model) ChooseUpdate(w Workload) (Plan, float64) {
	c := m.UpdateCost(w)
	if c > 0 {
		return PlanEdit, c
	}
	return PlanOverwrite, c
}

// ChooseDelete picks the plan for a DELETE.
func (m *Model) ChooseDelete(w Workload) (Plan, float64) {
	c := m.DeleteCost(w)
	if c > 0 {
		return PlanEdit, c
	}
	return PlanOverwrite, c
}

// UpdateCrossover returns the ratio α* where the UPDATE plans break
// even (CostU = 0) for the given workload shape, found by bisection.
func (m *Model) UpdateCrossover(w Workload) float64 {
	return bisectRatio(func(r float64) float64 {
		w2 := w
		w2.Ratio = r
		return m.UpdateCost(w2)
	})
}

// DeleteCrossover returns β* where the DELETE plans break even.
func (m *Model) DeleteCrossover(w Workload) float64 {
	return bisectRatio(func(r float64) float64 {
		w2 := w
		w2.Ratio = r
		return m.DeleteCost(w2)
	})
}

// bisectRatio finds the zero of f on (0, 1); f is expected to be
// decreasing in the ratio. Returns 1 if EDIT always wins, 0 if
// OVERWRITE always wins.
func bisectRatio(f func(float64) float64) float64 {
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
