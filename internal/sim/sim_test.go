package sim

import (
	"math"
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
	if m.BytesWritten() != 1<<30 {
		t.Errorf("BytesWritten = %d", m.BytesWritten())
	}
	if m.Ops() != 1 {
		t.Errorf("Ops = %d", m.Ops())
	}
}

func TestMeterNilSafe(t *testing.T) {
	var m *Meter
	m.DFSRead(100)
	m.KVPut(10)
	m.AddSeconds(1)
	if m.Seconds() != 0 || m.Ops() != 0 {
		t.Error("nil meter should be inert")
	}
	m2 := NewMeter(nil)
	m2.DFSRead(100) // params nil: no-op
	if m2.Seconds() != 0 {
		t.Error("meter with nil params should not charge time")
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
				m.AddSeconds(0.001)
			}
		}()
	}
	wg.Wait()
	if math.Abs(m.Seconds()-16.0) > 1e-6 {
		t.Errorf("concurrent AddSeconds lost updates: %v", m.Seconds())
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
