// Package sim provides deterministic cost accounting for the simulated
// cluster. The storage substrates (dfs, kvstore) and the MapReduce
// engine execute real algorithms on real bytes; in addition they charge
// their I/O to a Meter using the rates in CostParams. The harness uses
// the accumulated simulated seconds to reproduce the *shape* of the
// paper's cluster experiments (26-node grid cluster, 10-node TPC-H
// cluster) at laptop scale.
//
// Rates are calibrated from the worked example in the paper's §IV:
// aggregate HDFS write ≈ 1 GB/s, HBase read ≈ 0.5 GB/s, HBase write ≈
// 0.8 GB/s for the 26-node cluster.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"
)

// CostParams holds the calibrated rates of one simulated cluster.
// All throughputs are aggregate cluster bytes/second; per-operation
// costs are seconds. DataScale inflates byte counts so that a scaled-
// down in-memory dataset is metered as if it had the paper's volume.
type CostParams struct {
	Name string

	// Cluster topology (paper §VI: 8 cores per node, 6 map + 2 reduce
	// slots per worker, 3 replicas, 64 MB chunks).
	Nodes              int
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	ReplicationFactor  int
	DFSBlockSizeBytes  int64
	DataScale          float64 // multiply real bytes by this before metering

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
		ReplicationFactor:  3,
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

func (p CostParams) scaleBytes(n int64) float64 {
	s := p.DataScale
	if s <= 0 {
		s = 1
	}
	return float64(n) * s
}

// opScale is the factor applied to per-record operation counts: a
// scaled-down run performs 1/DataScale of the paper-scale operations,
// so each laptop operation stands for DataScale real ones.
func (p CostParams) opScale() float64 {
	s := p.DataScale
	if s <= 0 {
		s = 1
	}
	return s
}

// slotDivisor converts aggregate throughputs into per-slot
// throughputs: task meters charge at per-slot rates, and the
// slot-scheduled makespan recovers the aggregate.
func (p CostParams) slotDivisor() float64 {
	d := float64(p.MapSlots())
	if d < 1 {
		return 1
	}
	return d
}

// Meter accumulates simulated seconds and I/O counters. It is safe for
// concurrent use; MapReduce tasks each charge their own Meter and the
// scheduler folds them into a makespan.
//
// Per-record charges should be batched: the row-count methods
// (CPURows, UnionReadRows) take a count precisely so hot loops can
// accumulate a plain local counter and flush once per task — n·cost
// is charged either way, without an atomic float add per record.
type Meter struct {
	params  *CostParams
	seconds atomic.Uint64 // float64 bits
	ops     atomic.Int64
	bytesR  atomic.Int64
	bytesW  atomic.Int64
}

// NewMeter returns a meter charging at the given rates. A nil params
// yields a no-op meter that still counts bytes.
func NewMeter(params *CostParams) *Meter {
	return &Meter{params: params}
}

// AddSeconds adds raw simulated seconds.
func (m *Meter) AddSeconds(s float64) {
	if m == nil || s == 0 {
		return
	}
	for {
		old := m.seconds.Load()
		newv := math.Float64bits(math.Float64frombits(old) + s)
		if m.seconds.CompareAndSwap(old, newv) {
			return
		}
	}
}

// Seconds returns the accumulated simulated seconds.
func (m *Meter) Seconds() float64 {
	if m == nil {
		return 0
	}
	return math.Float64frombits(m.seconds.Load())
}

// Ops returns the number of charged operations.
func (m *Meter) Ops() int64 {
	if m == nil {
		return 0
	}
	return m.ops.Load()
}

// BytesRead returns total bytes charged as reads.
func (m *Meter) BytesRead() int64 {
	if m == nil {
		return 0
	}
	return m.bytesR.Load()
}

// BytesWritten returns total bytes charged as writes.
func (m *Meter) BytesWritten() int64 {
	if m == nil {
		return 0
	}
	return m.bytesW.Load()
}

// Reset zeroes the meter.
func (m *Meter) Reset() {
	if m == nil {
		return
	}
	m.seconds.Store(0)
	m.ops.Store(0)
	m.bytesR.Store(0)
	m.bytesW.Store(0)
}

func (m *Meter) charge(bytes int64, read bool, secs float64) {
	if m == nil {
		return
	}
	m.ops.Add(1)
	if read {
		m.bytesR.Add(bytes)
	} else {
		m.bytesW.Add(bytes)
	}
	m.AddSeconds(secs)
}

// DFSRead charges a streaming read of n bytes from the master
// storage at the per-slot rate.
func (m *Meter) DFSRead(n int64) {
	if m == nil || m.params == nil {
		return
	}
	m.charge(n, true, m.params.scaleBytes(n)*m.params.slotDivisor()/m.params.DFSSeqReadBps)
}

// DFSWrite charges a streaming write of n bytes (one replica pipeline;
// replication is included in the rate calibration).
func (m *Meter) DFSWrite(n int64) {
	if m == nil || m.params == nil {
		return
	}
	m.charge(n, false, m.params.scaleBytes(n)*m.params.slotDivisor()/m.params.DFSSeqWriteBps)
}

// DFSOpen charges one file open.
func (m *Meter) DFSOpen() {
	if m == nil || m.params == nil {
		return
	}
	m.charge(0, true, m.params.DFSOpenCost)
}

// KVGet charges one random get returning n bytes.
func (m *Meter) KVGet(n int64) {
	if m == nil || m.params == nil {
		return
	}
	m.charge(n, true, m.params.KVGetCost*m.params.opScale()+m.params.scaleBytes(n)*m.params.slotDivisor()/m.params.KVReadBps)
}

// KVPut charges one put of n bytes.
func (m *Meter) KVPut(n int64) {
	if m == nil || m.params == nil {
		return
	}
	m.charge(n, false, m.params.KVPutCost*m.params.opScale()+m.params.scaleBytes(n)*m.params.slotDivisor()/m.params.KVWriteBps)
}

// KVScan charges a sequential scan segment of n bytes.
func (m *Meter) KVScan(n int64) {
	if m == nil || m.params == nil {
		return
	}
	m.charge(n, true, m.params.scaleBytes(n)*m.params.slotDivisor()/m.params.KVReadBps)
}

// KVSeek charges one iterator seek.
func (m *Meter) KVSeek() {
	if m == nil || m.params == nil {
		return
	}
	m.charge(0, true, m.params.KVSeekCost)
}

// CPURows charges operator CPU for n processed rows (each laptop row
// stands for DataScale paper-scale rows).
func (m *Meter) CPURows(n int64) {
	if m == nil || m.params == nil {
		return
	}
	m.AddSeconds(float64(n) * m.params.CPURowCost * m.params.opScale())
}

// UnionReadRows charges the per-row merge overhead of DualTable's
// UNION READ (the "function invocation" cost the paper measures as
// the 8–12% empty-attached-table overhead of Fig. 4). The charge is
// batch-granular by contract: readers accumulate a plain counter —
// per record on the row path, += batch length on the vectorized
// path — and flush once per task at Close, so n merged rows cost
// n·UnionReadRowCost on either path and the simulated seconds of
// batch and row scans stay bit-identical.
func (m *Meter) UnionReadRows(n int64) {
	if m == nil || m.params == nil {
		return
	}
	m.AddSeconds(float64(n) * m.params.UnionReadRowCost * m.params.opScale())
}

// Shuffle charges a shuffle copy of n bytes.
func (m *Meter) Shuffle(n int64) {
	if m == nil || m.params == nil {
		return
	}
	m.charge(n, true, m.params.scaleBytes(n)*m.params.slotDivisor()/m.params.ShuffleBps)
}

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
