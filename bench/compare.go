package bench

import (
	"fmt"
	"io"
	"math"
	"os"
)

// Verdict is the outcome of one metric's comparison.
type Verdict string

const (
	Within     Verdict = "ok"
	Better     Verdict = "better"
	Regressed  Verdict = "REGRESSED"
	Unresolved Verdict = "unresolved"
	Mismatch   Verdict = "MISMATCH"
)

// Diff is one workload × metric line of a comparison.
type Diff struct {
	Workload string
	Metric   string
	A, B     float64
	// Worse is the relative change in the metric's bad direction
	// (positive = B is worse than A).
	Worse   float64
	Bound   float64
	Verdict Verdict
}

// Report is a whole comparison.
type Report struct {
	Diffs []Diff
}

// OK reports whether every metric is inside its bound and resolved.
func (r *Report) OK() bool {
	for _, d := range r.Diffs {
		if d.Verdict == Regressed || d.Verdict == Unresolved || d.Verdict == Mismatch {
			return false
		}
	}
	return true
}

func (r *Report) Print(w io.Writer) {
	for _, d := range r.Diffs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("bound %.0f%%", d.Bound*100)
		} else {
			bound = "exact"
		}
		fmt.Fprintf(w, "%-15s %-28s %14.4f -> %14.4f  worse by %+7.2f%%  %-10s %s\n",
			d.Workload, d.Metric, d.A, d.B, d.Worse*100, bound, d.Verdict)
	}
	if r.OK() {
		fmt.Fprintln(w, "compare: every metric inside its bound")
	} else {
		fmt.Fprintln(w, "compare: outside bounds")
	}
}

// worseBy is the relative change from a to b in the direction that is
// bad for the metric.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	rel := (b - a) / math.Abs(a)
	if better == higher {
		rel = -rel
	}
	return rel
}

// judge compares one end-to-end metric of two runs. The verdict is
// unresolved when either run's own spread (the quartile distance of
// its segments over their median) exceeds the bound: a difference
// smaller than the noise proves nothing either way.
func judge(m E2EMetric, a, b *Result) Diff {
	va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
	d := Diff{Workload: a.Workload, Metric: m.Name, A: va, B: vb, Bound: m.Bound, Worse: worseBy(m.Better, va, vb)}
	switch {
	case spreadOf(a, m.Name) > m.Bound || spreadOf(b, m.Name) > m.Bound:
		d.Verdict = Unresolved
	case d.Worse > m.Bound:
		d.Verdict = Regressed
	case d.Worse < -m.Bound:
		d.Verdict = Better
	default:
		d.Verdict = Within
	}
	return d
}

func spreadOf(r *Result, name string) float64 {
	sp, ok := r.Spread[name]
	if !ok || sp[1] == 0 {
		return 0
	}
	return (sp[2] - sp[0]) / sp[1]
}

// oneSession names the workloads whose counts repeat exactly: a single
// session, so nothing depends on how two clients interleave.
func oneSession(workload string) bool {
	d := Workload(workload)
	return d != nil && d.clients == 1
}

// Compare diffs the result sets in two directories, workload by
// workload: every end-to-end metric against its bound, direction
// aware, and on the one-session workloads the exact counts and result
// digests of the traced pass, which must be identical. It refuses
// results taken on different machines or seeds unless force is set.
func Compare(dirA, dirB string, force bool) (*Report, error) {
	rep := &Report{}
	found := 0
	for _, def := range Workloads() {
		for _, traced := range []bool{false, true} {
			pa, pb := resultFile(dirA, def.name, traced), resultFile(dirB, def.name, traced)
			_, errA := os.Stat(pa)
			_, errB := os.Stat(pb)
			if errA != nil && errB != nil {
				continue
			}
			a, err := loadResult(pa)
			if err != nil {
				return nil, err
			}
			b, err := loadResult(pb)
			if err != nil {
				return nil, err
			}
			if !force {
				if a.Fingerprint != b.Fingerprint {
					return nil, fmt.Errorf("%s: machine fingerprints differ (%+v vs %+v); use -force to compare anyway", def.name, a.Fingerprint, b.Fingerprint)
				}
				if a.Seed != b.Seed || a.Scale != b.Scale {
					return nil, fmt.Errorf("%s: seed/scale differ (%d %s vs %d %s); use -force to compare anyway", def.name, a.Seed, a.Scale, b.Seed, b.Scale)
				}
			}
			found++
			if !a.Correct || !b.Correct {
				rep.Diffs = append(rep.Diffs, Diff{Workload: def.name, Metric: "correct", A: b2f(a.Correct), B: b2f(b.Correct), Verdict: Mismatch})
			}
			if !traced {
				for _, m := range E2E {
					rep.Diffs = append(rep.Diffs, judge(m, a, b))
				}
				continue
			}
			if !oneSession(def.name) {
				continue
			}
			for _, name := range exactCounts {
				va, vb := a.Metrics[name].Value, b.Metrics[name].Value
				d := Diff{Workload: def.name, Metric: name, A: va, B: vb, Worse: worseBy(betterOf(name), va, vb), Verdict: Within}
				if !sameCount(va, vb) {
					d.Verdict = Mismatch
				}
				rep.Diffs = append(rep.Diffs, d)
			}
			for class, da := range a.Digests {
				if db := b.Digests[class]; db != da {
					rep.Diffs = append(rep.Diffs, Diff{Workload: def.name, Metric: "digest." + class, Verdict: Mismatch})
				}
			}
		}
	}
	if found == 0 {
		return nil, fmt.Errorf("no result files common to %s and %s", dirA, dirB)
	}
	return rep, nil
}

// countTolerance is how far two runs' "exact" counts may differ. They
// are not quite exact: when a rewrite (OVERWRITE, COMPACT) reads more
// than one master file, the parallel map tasks interleave their rows in
// the output file in an order that differs between runs about once in
// ten, and the file's encoded size — and every byte count and simulated
// second charged after it — moves by a few parts in a million.
const countTolerance = 1e-4

func sameCount(a, b float64) bool { return closeTo(a, b, countTolerance) }

func closeTo(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
