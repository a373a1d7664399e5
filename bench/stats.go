package bench

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule: the smallest value with at least p of the samples
// at or below it. The result is always one of the samples, so a tail
// percentile is a latency some statement really had.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported as resolved (the choosing-metrics rule).
const minBeyond = 10

// tailSupported reports whether at least minBeyond of n samples lie
// strictly beyond the p-quantile's rank.
func tailSupported(n int, p float64) bool {
	if n == 0 {
		return false
	}
	rank := int(math.Ceil(p * float64(n)))
	return n-rank >= minBeyond
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile with
// the exclusive method of Python's statistics.quantiles(v, n=4), which
// is what the benchmark driver uses for run-to-run spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// segments is the number of equal op-count slices a measured phase is
// cut into; throughput is the median of the slices' rates, so one slow
// stretch on a shared machine moves one slice, not the metric.
const segments = 8

// segmentRates cuts events (sorted by end time, in seconds since the
// phase began) into `segments` slices of as equal a count as the cut
// points allow and returns each slice's weight per second: the weights
// completed in the slice over the time between the previous slice's
// last completion and its own. A slice may end only after an event
// whose cut flag is set (the end of a workload cycle), so that every
// slice holds whole cycles and the slices do the same work. With too
// few events for that it returns one rate over the whole phase.
func segmentRates(ends, weights []float64, cut []bool) []float64 {
	n := len(ends)
	if n == 0 {
		return nil
	}
	var cuts []int // event counts at which a slice may end
	for i, ok := range cut {
		if ok {
			cuts = append(cuts, i+1)
		}
	}
	bounds := []int{n}
	if len(cuts) >= 2*segments {
		bounds = bounds[:0]
		j := 0
		for s := 1; s <= segments; s++ {
			target := s * n / segments
			for j+1 < len(cuts) && abs(cuts[j+1]-target) <= abs(cuts[j]-target) {
				j++
			}
			if len(bounds) == 0 || cuts[j] > bounds[len(bounds)-1] {
				bounds = append(bounds, cuts[j])
			}
		}
	}
	rates := make([]float64, 0, len(bounds))
	prevEnd, prevIdx := 0.0, 0
	for _, idx := range bounds {
		var w float64
		for i := prevIdx; i < idx; i++ {
			w += weights[i]
		}
		if dt := ends[idx-1] - prevEnd; dt > 0 {
			rates = append(rates, w/dt)
		}
		prevEnd, prevIdx = ends[idx-1], idx
	}
	return rates
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// writeUserBytes is the user-byte model behind the write-amplification
// metrics: what the caller asked to store, independent of how the
// storage layers lay it out. An inserted row counts its column bytes,
// an update counts the assigned value's bytes once per affected row,
// and a delete counts one 8-byte record reference per row.
type writeUserBytes struct {
	insertedRowBytes int64
	assignedBytes    int64
	deletedRows      int64
}

func (u writeUserBytes) total() int64 {
	return u.insertedRowBytes + u.assignedBytes + 8*u.deletedRows
}

// ratio returns num/den, or 0 when nothing was asked for (a read-only
// phase has no user bytes and writes none).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
