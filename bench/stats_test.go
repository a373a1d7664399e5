package bench

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.50, 5}, {0.75, 8}, {0.95, 10}, {0.99, 10}, {0.10, 1}, {0.01, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty input must give NaN")
	}
}

// The "ten samples beyond" rule: a percentile is resolved only when at
// least ten samples lie strictly above its rank.
func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{200, 0.95, true},  // rank 190, 10 beyond
		{199, 0.95, false}, // rank 190, 9 beyond
		{64, 0.75, true},   // rank 48, 16 beyond
		{40, 0.75, true},   // rank 30, 10 beyond
		{39, 0.75, false},  // rank 30, 9 beyond
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false},
		{0, 0.5, false},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4)
// (exclusive method), which the benchmark driver uses.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 2, 38, 23, 38, 23, 21})
	if q1 != 10 || q2 != 23 || q3 != 38 {
		t.Errorf("quartiles = %v %v %v, want 10 23 38", q1, q2, q3)
	}
}

func TestSegmentRatesMedianIgnoresOneSlowStretch(t *testing.T) {
	// 80 events, one per 10 ms, except that the fourth slice of ten
	// stalls: its events take 100 ms each.
	var ends, w []float64
	var cut []bool
	now := 0.0
	for i := 0; i < 80; i++ {
		step := 0.010
		if i >= 30 && i < 40 {
			step = 0.100
		}
		now += step
		ends, w, cut = append(ends, now), append(w, 1), append(cut, true)
	}
	rates := segmentRates(ends, w, cut)
	if len(rates) != segments {
		t.Fatalf("got %d segments, want %d", len(rates), segments)
	}
	if m := median(rates); math.Abs(m-100) > 1e-6 {
		t.Errorf("median of segments = %v, want 100/s", m)
	}
	if math.Abs(rates[3]-10) > 1e-6 {
		t.Errorf("the stalled segment ran at %v/s, want 10/s", rates[3])
	}
	// The mean over the whole phase would have been dragged down.
	if mean := 80 / now; mean > 50 {
		t.Errorf("test premise: mean %v should be far below the median", mean)
	}
}

func TestSegmentRatesCutOnlyAtCycleEnds(t *testing.T) {
	// 20 cycles of 5 events; only the fifth event of a cycle may end a
	// segment. 100 events over 8 segments would cut at 12, 25, 37 ...;
	// the cuts must move to the nearest cycle ends instead.
	var ends, w []float64
	var cut []bool
	for i := 0; i < 100; i++ {
		ends, w, cut = append(ends, float64(i+1)), append(w, 1), append(cut, (i+1)%5 == 0)
	}
	rates := segmentRates(ends, w, cut)
	if len(rates) != segments {
		t.Fatalf("got %d segments, want %d", len(rates), segments)
	}
	for i, r := range rates {
		if math.Abs(r-1) > 1e-9 {
			t.Errorf("segment %d rate %v, want 1 (whole cycles at one event per second)", i, r)
		}
	}
	// Too few cycle ends for eight segments: one rate over the whole.
	if got := segmentRates(ends[:10], w[:10], cut[:10]); len(got) != 1 || got[0] != 1 {
		t.Errorf("short phase: got %v, want [1]", got)
	}
	if segmentRates(nil, nil, nil) != nil {
		t.Error("no events must give no rates")
	}
}

func TestWriteUserBytesModel(t *testing.T) {
	u := writeUserBytes{
		// 200 inserted rows of (BIGINT, BIGINT, DOUBLE, 'new').
		insertedRowBytes: 200 * (8 + 8 + 8 + 3),
		// SET tag = 'c12' on 16000 rows; SET v = v + 1 on 200 rows.
		assignedBytes: 3*16000 + 8*200,
		// 200 rows deleted: one 8-byte record reference each.
		deletedRows: 200,
	}
	if want := int64(200*27 + 48000 + 1600 + 1600); u.total() != want {
		t.Errorf("user bytes = %d, want %d", u.total(), want)
	}
	if ratio(10, 0) != 0 {
		t.Error("a phase that asked for no bytes has write amplification 0, not Inf")
	}
	if ratio(30, 10) != 3 {
		t.Error("ratio(30, 10) != 3")
	}
}

func TestWorseByIsDirectionAware(t *testing.T) {
	if got := worseBy(lower, 10, 11); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("latency 10 -> 11 is worse by %v, want 0.1", got)
	}
	if got := worseBy(higher, 100, 90); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("throughput 100 -> 90 is worse by %v, want 0.1", got)
	}
	if got := worseBy(higher, 100, 120); got >= 0 {
		t.Errorf("throughput 100 -> 120 must be an improvement, got %v", got)
	}
}
