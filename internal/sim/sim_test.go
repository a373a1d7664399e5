package sim

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestMeterAccumulates(t *testing.T) {
	p := GridCluster()
	m := NewMeter(&p)
	m.DFSWrite(1 << 30) // 1 GiB at the per-slot share of 1 GB/s
	got := m.Seconds()
	want := float64(1<<30) * 150 / p.DFSSeqWriteBps
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("DFSWrite seconds = %v, want %v", got, want)
	}
	if m.Counts() != (Counts{DFSWriteBytes: 1 << 30}) {
		t.Errorf("Counts = %v", m.Counts())
	}
}

func TestMeterNilSafe(t *testing.T) {
	var m *Meter
	m.DFSRead(100)
	m.KVPut(10)
	m.Add(Counts{CPURows: 1})
	if m.Seconds() != 0 || m.Counts() != (Counts{}) {
		t.Error("nil meter should be inert")
	}
	m2 := NewMeter(nil)
	m2.DFSRead(100) // params nil: counted, priced at nothing
	if m2.Seconds() != 0 {
		t.Error("meter with nil params should not charge time")
	}
	if got := m2.Counts(); got != (Counts{DFSReadBytes: 100}) {
		t.Errorf("meter with nil params counted %v, want 100 bytes read", got)
	}
}

func TestMeterConcurrent(t *testing.T) {
	p := GridCluster()
	m := NewMeter(&p)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.CPURows(1)
				m.KVScan(3)
			}
		}()
	}
	wg.Wait()
	if got := m.Counts(); got != (Counts{CPURows: 16000, KVReadBytes: 48000}) {
		t.Errorf("concurrent charges lost counts: %v", got)
	}
	one := NewMeter(&p)
	one.CPURows(16000)
	one.KVScan(48000)
	if m.Seconds() != one.Seconds() {
		t.Errorf("concurrent charges price to %v, one charge each to %v", m.Seconds(), one.Seconds())
	}
}

// A task's seconds are a function of what it charged, not of how: the
// same events charged one at a time or in one batch, and in any order,
// price to the same bits.
func TestTaskSecondsIndependentOfChargeGranularityAndOrder(t *testing.T) {
	for _, p := range []CostParams{GridCluster(), TPCHCluster()} {
		p.DataScale = 4000
		const n = 1000
		batch, single := NewMeter(&p), NewMeter(&p)
		batch.CPURows(n)
		batch.UnionReadRows(n)
		for range n {
			single.CPURows(1)
			single.UnionReadRows(1)
		}
		if a, b := batch.Seconds(), single.Seconds(); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: %d rows charged at once cost %v, one by one %v", p.Name, n, a, b)
		}

		// Interleaved KV scan and DFS read charges, shuffled.
		type charge struct {
			kv bool
			n  int64
		}
		var charges []charge
		for i := range 64 {
			charges = append(charges, charge{i%3 == 0, int64(100 + 37*i)})
		}
		rng := rand.New(rand.NewSource(1))
		var want uint64
		for round := range 20 {
			m := NewMeter(&p)
			for _, c := range charges {
				if c.kv {
					m.KVScan(c.n)
				} else {
					m.DFSRead(c.n)
				}
			}
			if got := math.Float64bits(m.Seconds()); round == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%s: order %d prices to %v, the first order to %v", p.Name, round,
					math.Float64frombits(got), math.Float64frombits(want))
			}
			rng.Shuffle(len(charges), func(i, j int) { charges[i], charges[j] = charges[j], charges[i] })
		}
	}
}

func TestKVGetChargesPerOpPlusBytes(t *testing.T) {
	p := GridCluster()
	m := NewMeter(&p)
	m.KVGet(1000)
	want := p.KVGetCost + 1000*150/p.KVReadBps
	if math.Abs(m.Seconds()-want) > 1e-12 {
		t.Errorf("KVGet = %v, want %v", m.Seconds(), want)
	}
}

func TestDataScaleInflatesBytes(t *testing.T) {
	p := GridCluster()
	p.DataScale = 100
	m := NewMeter(&p)
	m.DFSRead(1000)
	want := 100 * 1000 * 150 / p.DFSSeqReadBps
	if math.Abs(m.Seconds()-want) > 1e-12 {
		t.Errorf("scaled DFSRead = %v, want %v", m.Seconds(), want)
	}
}

// A statement's ledger: its jobs' seconds as recorded, each serial
// charge priced as a task of its own, and every count summed.
func TestLedgerSumsJobsAndSerialCharges(t *testing.T) {
	p := GridCluster()
	l := NewLedger(&p)
	l.Add(Counts{Jobs: 1, DFSReadBytes: 1 << 20, CPURows: 500}, 12.5)
	l.Charge(CPURows, 40)
	l.Add(Counts{Jobs: 1, DFSWriteBytes: 1 << 10}, 13)
	if want := 12.5 + p.TaskSeconds(Counts{CPURows: 40}) + 13; l.Seconds() != want {
		t.Errorf("Seconds = %v, want %v", l.Seconds(), want)
	}
	want := Counts{Jobs: 2, DFSReadBytes: 1 << 20, DFSWriteBytes: 1 << 10, CPURows: 540}
	if got := l.Counts(); got != want {
		t.Errorf("Counts = %v, want %v", got, want)
	}
}

// PlanSeconds is §IV's view of the same prices: work spread over every
// map slot, plus a job startup per job.
func TestPlanSecondsSpreadsTaskSecondsOverTheSlots(t *testing.T) {
	p := GridCluster()
	p.DataScale = 4000
	c := Counts{DFSWriteBytes: 1 << 20, KVPuts: 10, KVPutBytes: 1000, CPURows: 77}
	task := p.TaskSeconds(c)
	q := Quantities{DFSWriteBytes: 1 << 20, KVPuts: 10, KVPutBytes: 1000, CPURows: 77, Jobs: 2}
	want := task/float64(p.MapSlots()) + 2*p.JobStartupCost
	if got := p.PlanSeconds(q); math.Abs(got-want) > 1e-12*want {
		t.Errorf("PlanSeconds = %v, want %v", got, want)
	}
	if got := p.TaskSeconds(Counts{}); got != 0 {
		t.Errorf("no counts price to %v", got)
	}
}

func TestMakespanSingleSlotIsSum(t *testing.T) {
	d := []float64{1, 2, 3}
	if got := Makespan(d, 1, 0); math.Abs(got-6) > 1e-12 {
		t.Errorf("Makespan 1 slot = %v, want 6", got)
	}
}

func TestMakespanManySlots(t *testing.T) {
	d := []float64{5, 1, 1, 1}
	// 2 slots FIFO: slot0 gets 5, slot1 gets 1+1+1 → makespan 5.
	if got := Makespan(d, 2, 0); math.Abs(got-5) > 1e-12 {
		t.Errorf("Makespan = %v, want 5", got)
	}
	// More slots than tasks.
	if got := Makespan(d, 100, 0); math.Abs(got-5) > 1e-12 {
		t.Errorf("Makespan wide = %v, want 5", got)
	}
}

func TestMakespanStartupAdds(t *testing.T) {
	d := []float64{1, 1}
	if got := Makespan(d, 1, 0.5); math.Abs(got-3) > 1e-12 {
		t.Errorf("Makespan with startup = %v, want 3", got)
	}
}

func TestMakespanEmpty(t *testing.T) {
	if Makespan(nil, 4, 1) != 0 {
		t.Error("empty makespan should be 0")
	}
}

func TestPropertyMakespanBounds(t *testing.T) {
	f := func(raw []uint16, slots uint8) bool {
		if len(raw) == 0 {
			return true
		}
		d := make([]float64, len(raw))
		var sum, max float64
		for i, v := range raw {
			d[i] = float64(v) / 100
			sum += d[i]
			if d[i] > max {
				max = d[i]
			}
		}
		s := int(slots%16) + 1
		got := Makespan(d, s, 0)
		lower := math.Max(max, sum/float64(s))
		// Greedy list scheduling is within 2x of the lower bound.
		return got >= lower-1e-9 && got <= 2*lower+1e-9 && got <= sum+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterPresets(t *testing.T) {
	g := GridCluster()
	if g.Nodes != 26 || g.MapSlots() != 150 || g.ReduceSlots() != 50 {
		t.Errorf("grid cluster topology wrong: %v", g)
	}
	tp := TPCHCluster()
	if tp.Nodes != 10 || tp.MapSlots() != 54 {
		t.Errorf("tpch cluster topology wrong: %v", tp)
	}
	if tp.DFSSeqWriteBps >= g.DFSSeqWriteBps {
		t.Error("tpch cluster should have lower aggregate throughput")
	}
	if g.String() == "" || tp.String() == "" {
		t.Error("String() empty")
	}
}
