// Package sim is the paper's clock: deterministic cost accounting for
// the simulated cluster. The storage substrates (dfs, kvstore) and the
// MapReduce engine execute real algorithms on real bytes and count
// every priced event — file opens, bytes read and written, attached-
// store gets, puts, seeks and scan bytes, operator and UNION READ rows,
// shuffle bytes, jobs — in integer Counts: per task on a Meter, summed
// per job, and per statement in a Ledger. One pricing function on
// CostParams owns every rate, DataScale and the slot division: it turns
// a task's counts into the duration the job's makespan schedules
// (TaskSeconds), and §IV's predicted plan quantities into cluster
// seconds (PlanSeconds). Counts add exactly and pricing is linear, so
// a task's seconds do not depend on charge order or granularity. The
// harness reproduces the *shape* of the paper's experiments (26-node
// grid and 10-node TPC-H clusters) at laptop scale; rates are
// calibrated from §IV's worked example (aggregate HDFS write ≈ 1 GB/s,
// HBase read ≈ 0.5 GB/s, HBase write ≈ 0.8 GB/s on the grid cluster).
package sim

import (
	"fmt"
	"sync/atomic"
)

// CostParams holds the calibrated rates of one simulated cluster.
// All throughputs are aggregate cluster bytes/second; per-operation
// costs are seconds. DataScale inflates byte and record counts so that
// a scaled-down in-memory dataset is priced as if it had the paper's
// volume.
type CostParams struct {
	Name string

	// Cluster topology (paper §VI: 8 cores per node, 6 map + 2 reduce
	// slots per worker, 64 MB chunks; the write rate includes the 3
	// replicas).
	Nodes              int
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	DFSBlockSizeBytes  int64
	DataScale          float64 // paper-scale bytes and records per counted one

	// HDFS-like master table storage.
	DFSSeqReadBps  float64 // aggregate streaming read throughput
	DFSSeqWriteBps float64 // aggregate streaming write throughput (per replica stream)
	DFSOpenCost    float64 // seconds per file open (namenode RPC)

	// HBase-like attached table storage.
	KVReadBps  float64 // aggregate scan throughput
	KVWriteBps float64 // aggregate put throughput
	KVGetCost  float64 // seconds per random get (RPC + block seek)
	KVPutCost  float64 // seconds per put (RPC + WAL sync amortized)
	KVSeekCost float64 // seconds per iterator seek

	// MapReduce engine.
	JobStartupCost  float64 // seconds to launch one MR job
	TaskStartupCost float64 // seconds to launch one task (JVM reuse amortized)
	CPURowCost      float64 // seconds of CPU per row processed by an operator
	ShuffleBps      float64 // aggregate shuffle copy throughput
	// UnionReadRowCost is DualTable's per-row merge overhead during
	// UNION READ (Fig. 4's empty-attached-table overhead).
	UnionReadRowCost float64
}

// GridCluster returns parameters for the paper's 26-node grid cluster
// (1 master + 25 workers). Aggregate rates follow §IV's worked
// example; per-op costs are chosen so the grid-figure crossovers land
// where the paper reports them (Fig. 5: 6/36, Fig. 6: 10/36).
func GridCluster() CostParams {
	return CostParams{
		Name:               "grid-26",
		Nodes:              26,
		MapSlotsPerNode:    6,
		ReduceSlotsPerNode: 2,
		DFSBlockSizeBytes:  64 << 20,
		DataScale:          1,
		DFSSeqReadBps:      2.0e9,
		DFSSeqWriteBps:     1.0e9,
		DFSOpenCost:        0.01,
		KVReadBps:          0.5e9,
		KVWriteBps:         0.8e9,
		KVGetCost:          250e-6,
		KVPutCost:          215e-6,
		KVSeekCost:         2e-3,
		JobStartupCost:     12,
		TaskStartupCost:    0.5,
		CPURowCost:         0.05e-6,
		ShuffleBps:         1.0e9,
		UnionReadRowCost:   1e-6,
	}
}

// TPCHCluster returns parameters for the paper's 10-node TPC-H cluster
// (1 master + 9 workers). Rates are scaled down from the grid cluster
// by the worker ratio; per-op costs are tuned so the Fig. 13 update
// crossover lands near 35 % and the Fig. 14 delete crossover lower, as
// reported.
func TPCHCluster() CostParams {
	p := GridCluster()
	p.Name = "tpch-10"
	p.Nodes = 10
	scale := 9.0 / 25.0
	p.DFSSeqReadBps *= scale
	p.DFSSeqWriteBps *= scale
	p.KVReadBps *= scale
	p.KVWriteBps *= scale
	p.ShuffleBps *= scale
	p.KVGetCost = 300e-6
	p.KVPutCost = 44e-6
	p.JobStartupCost = 10
	p.UnionReadRowCost = 0.2e-6
	return p
}

// MapSlots returns the total map slots of the cluster (workers only).
func (p CostParams) MapSlots() int {
	w := p.Nodes - 1
	if w < 1 {
		w = 1
	}
	return w * p.MapSlotsPerNode
}

// ReduceSlots returns the total reduce slots of the cluster.
func (p CostParams) ReduceSlots() int {
	w := p.Nodes - 1
	if w < 1 {
		w = 1
	}
	return w * p.ReduceSlotsPerNode
}

// slotDivisor is the number of map slots the cluster's aggregate
// throughputs are shared by.
func (p CostParams) slotDivisor() float64 {
	return max(float64(p.MapSlots()), 1)
}

// scale is DataScale, 1 when unset.
func (p CostParams) scale() float64 {
	if p.DataScale <= 0 {
		return 1
	}
	return p.DataScale
}

// Kind names one priced event of the ledger: an event the storage
// substrates and the MapReduce engine charge, or Jobs, which a meter
// never charges (mapred counts one per job run).
type Kind int

// The kinds of the ledger.
const (
	DFSOpens      Kind = iota // file opens (namenode RPCs)
	DFSReadBytes              // bytes streamed from the master storage
	DFSWriteBytes             // bytes streamed into the master storage
	KVGets                    // attached-store random gets
	KVPuts                    // attached-store puts
	KVPutBytes                // bytes put
	KVReadBytes               // bytes scanned or got from the attached store
	KVSeeks                   // attached-store iterator seeks
	CPURows                   // rows an operator processed
	UnionReadRows             // rows UNION READ merged
	ShuffleBytes              // bytes a reduce task copied from the maps
	Jobs                      // MapReduce jobs run
	NumKinds
)

// Counts is the ledger of a task, a job or a statement: how many of
// each kind of event it charged. Counts add exactly, so a total is the
// same whatever the charge order and granularity.
type Counts [NumKinds]int64

// Add adds o into c.
func (c *Counts) Add(o Counts) {
	for k, n := range o {
		c[k] += n
	}
}

// Quantities are fractional counts: what §IV's model predicts a plan
// performs (α·rows records, say). Pricing is linear, so they are priced
// exactly like counts.
type Quantities [NumKinds]float64

// price is the paper's clock: the one place that reads a rate,
// DataScale or the slot division. It returns the seconds q costs when
// `share` slots run it side by side, plus JobStartupCost per job.
// Throughputs are cluster-aggregate, so one slot moves bytes at a
// MapSlots-th of them; per-record costs are one task's latency, and
// each counted record stands for DataScale paper-scale ones (a
// scaled-down run performs 1/DataScale of the paper's records and
// bytes). Opens and seeks are per file and stay unscaled.
func (p CostParams) price(q Quantities, share float64) float64 {
	s, slot := p.scale(), p.slotDivisor()
	unit := [Jobs]float64{ // seconds per event on one slot
		DFSOpens:      p.DFSOpenCost,
		DFSReadBytes:  s * slot / p.DFSSeqReadBps,
		DFSWriteBytes: s * slot / p.DFSSeqWriteBps,
		KVGets:        s * p.KVGetCost,
		KVPuts:        s * p.KVPutCost,
		KVPutBytes:    s * slot / p.KVWriteBps,
		KVReadBytes:   s * slot / p.KVReadBps,
		KVSeeks:       p.KVSeekCost,
		CPURows:       s * p.CPURowCost,
		UnionReadRows: s * p.UnionReadRowCost,
		ShuffleBytes:  s * slot / p.ShuffleBps,
	}
	var secs float64
	for k, u := range unit {
		if q[k] != 0 { // a rate a cluster leaves unset prices nothing
			secs += q[k] * u
		}
	}
	return secs/share + q[Jobs]*p.JobStartupCost
}

// TaskSeconds prices one task's counts: how long the task holds its
// slot. A job's seconds are the slot-scheduled makespan of these.
func (p CostParams) TaskSeconds(c Counts) float64 {
	var q Quantities
	for k, n := range c {
		q[k] = float64(n)
	}
	return p.price(q, 1)
}

// PlanSeconds prices what one plan performs as §IV reasons about it:
// the work spread evenly over every map slot, plus JobStartupCost per
// job.
func (p CostParams) PlanSeconds(q Quantities) float64 {
	return p.price(q, p.slotDivisor())
}

// VirtualTasks is the number of tasks a real task over length bytes
// stands for at paper scale (its scaled bytes over the DFS block size,
// at least 1 and at most 65536), so that the makespan reflects the
// paper cluster's parallelism.
func (p CostParams) VirtualTasks(length int64) int {
	block := p.DFSBlockSizeBytes
	if block <= 0 {
		block = 64 << 20
	}
	return min(max(int(float64(length)*p.scale()/float64(block)), 1), 65536)
}

// Meter is one task's ledger: integer counts, charged concurrently
// (each charge is one atomic add) and priced by CostParams when the
// task ends. MapReduce tasks each charge their own Meter and the
// scheduler folds their prices into a makespan. The zero Meter counts
// and prices at nothing.
type Meter struct {
	params *CostParams
	n      [Jobs]atomic.Int64 // a meter charges every kind but Jobs
}

// NewMeter returns a meter priced at the given rates. A nil params
// yields a meter that counts but prices every count at 0 seconds.
func NewMeter(params *CostParams) *Meter {
	return &Meter{params: params}
}

func (m *Meter) add(k Kind, n int64) {
	if m != nil {
		m.n[k].Add(n)
	}
}

// Counts returns what the meter has charged.
func (m *Meter) Counts() Counts {
	var c Counts
	if m != nil {
		for k := range m.n {
			c[k] = m.n[k].Load()
		}
	}
	return c
}

// Seconds prices the meter's counts as one task.
func (m *Meter) Seconds() float64 {
	if m == nil || m.params == nil {
		return 0
	}
	return m.params.TaskSeconds(m.Counts())
}

// Add charges c's events (a replayed pre-scan, say); Jobs are not a
// meter's to charge.
func (m *Meter) Add(c Counts) {
	for k := range Jobs {
		m.add(k, c[k])
	}
}

// Reset zeroes the meter.
func (m *Meter) Reset() {
	for k := range m.n {
		m.n[k].Store(0)
	}
}

// DFSRead charges a streaming read of n bytes from the master storage.
func (m *Meter) DFSRead(n int64) { m.add(DFSReadBytes, n) }

// DFSWrite charges a streaming write of n bytes.
func (m *Meter) DFSWrite(n int64) { m.add(DFSWriteBytes, n) }

// DFSOpen charges one file open.
func (m *Meter) DFSOpen() { m.add(DFSOpens, 1) }

// KVGet charges one random get returning n bytes.
func (m *Meter) KVGet(n int64) {
	m.add(KVGets, 1)
	m.add(KVReadBytes, n)
}

// KVPut charges one put of n bytes.
func (m *Meter) KVPut(n int64) {
	m.add(KVPuts, 1)
	m.add(KVPutBytes, n)
}

// KVScan charges a sequential scan segment of n bytes.
func (m *Meter) KVScan(n int64) { m.add(KVReadBytes, n) }

// KVSeek charges one iterator seek.
func (m *Meter) KVSeek() { m.add(KVSeeks, 1) }

// CPURows charges operator CPU for n processed rows. Hot loops keep a
// plain local counter and charge it once per task.
func (m *Meter) CPURows(n int64) { m.add(CPURows, n) }

// UnionReadRows charges the per-row merge overhead of DualTable's
// UNION READ (Fig. 4's 8–12% empty-attached-table overhead). Readers
// keep a plain counter and charge it once per task at Close.
func (m *Meter) UnionReadRows(n int64) { m.add(UnionReadRows, n) }

// Shuffle charges a shuffle copy of n bytes.
func (m *Meter) Shuffle(n int64) { m.add(ShuffleBytes, n) }

// Ledger is a statement's clock: its counts and seconds. A job adds
// its summed counts and its makespan; a charge made outside any task
// (a query's in-process tail, LOAD's read of its source) is priced
// serially, as one task of its own. Jobs run one after another, so a
// Ledger is not for concurrent use.
type Ledger struct {
	params  *CostParams
	counts  Counts
	seconds float64
}

// NewLedger returns an empty ledger priced at the given rates.
func NewLedger(params *CostParams) *Ledger {
	return &Ledger{params: params}
}

// Add records a job's (or a nested statement's) counts and seconds.
func (l *Ledger) Add(c Counts, seconds float64) {
	l.counts.Add(c)
	l.seconds += seconds
}

// Charge records n events of kind k made outside any task.
func (l *Ledger) Charge(k Kind, n int64) {
	var c Counts
	c[k] = n
	l.Add(c, l.params.TaskSeconds(c))
}

// Counts returns the summed counts of everything the ledger recorded.
func (l *Ledger) Counts() Counts { return l.counts }

// Seconds returns the statement's simulated seconds.
func (l *Ledger) Seconds() float64 { return l.seconds }

// Makespan computes the simulated wall time of running tasks with the
// given per-task durations on `slots` parallel slots using greedy
// first-available scheduling in submission order (matching Hadoop's
// FIFO within a job). Each task additionally pays startup seconds.
func Makespan(durations []float64, slots int, startup float64) float64 {
	if len(durations) == 0 {
		return 0
	}
	if slots < 1 {
		slots = 1
	}
	if slots > len(durations) {
		slots = len(durations)
	}
	avail := make([]float64, slots)
	for _, d := range durations {
		// Pick the earliest-available slot.
		mi := 0
		for i := 1; i < slots; i++ {
			if avail[i] < avail[mi] {
				mi = i
			}
		}
		avail[mi] += startup + d
	}
	max := avail[0]
	for _, v := range avail[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// String describes the cluster briefly.
func (p CostParams) String() string {
	return fmt.Sprintf("%s: %d nodes, %d map slots, %d reduce slots",
		p.Name, p.Nodes, p.MapSlots(), p.ReduceSlots())
}
