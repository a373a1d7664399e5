package bench

import (
	"strings"
	"testing"
)

// fakeResult builds an end-to-end result whose metrics are all 100.
func fakeResult(workload string, seed int64) *Result {
	r := newResult(Workload(workload), seed, 1, Full, false)
	r.Correct, r.Attempted = true, 10
	for _, m := range E2E {
		r.set(m.Name, 100)
	}
	return r
}

func fakeLayers(workload string, seed int64) *Result {
	r := newResult(Workload(workload), seed, 1, Full, true)
	r.Correct, r.Attempted = true, 10
	for _, m := range Layers {
		r.set(m.Name, 5)
	}
	return r
}

func save(t *testing.T, dir string, rs ...*Result) {
	t.Helper()
	for _, r := range rs {
		if err := r.Save(dir); err != nil {
			t.Fatal(err)
		}
	}
}

func verdictOf(t *testing.T, rep *Report, workload, metric string) Verdict {
	t.Helper()
	for _, d := range rep.Diffs {
		if d.Workload == workload && d.Metric == metric {
			return d.Verdict
		}
	}
	t.Fatalf("no diff for %s %s in %+v", workload, metric, rep.Diffs)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	ra, rb := fakeResult("serve_point", 1), fakeResult("serve_point", 1)
	rb.set("stmts_per_s", 70)                         // throughput down 30 %, over the bound: regressed
	rb.set("main_p50_ms", 105)                        // latency up 5 %, inside the bound: ok
	rb.set("second_p50_ms", 60)                       // latency down 40 %: better
	rb.set("rows_per_s", 99)                          // inside the bound, but ...
	rb.Spread["rows_per_s"] = [3]float64{70, 99, 110} // ... the run's own spread is 40 %
	save(t, a, ra)
	save(t, b, rb)
	rep, err := Compare(a, b, false)
	if err != nil {
		t.Fatal(err)
	}
	for metric, want := range map[string]Verdict{
		"stmts_per_s": Regressed, "main_p50_ms": Within, "second_p50_ms": Better,
		"rows_per_s": Unresolved, "setup_s": Within,
	} {
		if got := verdictOf(t, rep, "serve_point", metric); got != want {
			t.Errorf("%s: verdict %s, want %s", metric, got, want)
		}
	}
	if rep.OK() {
		t.Error("a regressed and an unresolved metric must fail the comparison")
	}

	// The same result against itself passes.
	rep, err = Compare(a, a, false)
	if err != nil || !rep.OK() {
		t.Errorf("self comparison: ok=%v err=%v", rep != nil && rep.OK(), err)
	}
}

func TestCompareRefusesOtherMachineOrSeed(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	ra, rb := fakeResult("dml_churn", 1), fakeResult("dml_churn", 2)
	save(t, a, ra)
	save(t, b, rb)
	if _, err := Compare(a, b, false); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("different seeds: err = %v", err)
	}
	if _, err := Compare(a, b, true); err != nil {
		t.Errorf("-force must compare anyway: %v", err)
	}
	rb = fakeResult("dml_churn", 1)
	rb.Fingerprint.CPUModel = "another machine"
	save(t, b, rb)
	if _, err := Compare(a, b, false); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("different machines: err = %v", err)
	}
	if _, err := Compare(t.TempDir(), t.TempDir(), false); err == nil {
		t.Error("two empty directories must be an error")
	}
}

func TestCompareExactCountsOnOneSessionWorkloads(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	la, lb := fakeLayers("dml_churn", 1), fakeLayers("dml_churn", 1)
	lb.set("dfs.bytes_written", 6)                     // a fifth more
	lb.set("hive.sim_seconds", 5*(1+countTolerance/2)) // inside the tolerance
	la.Digests, lb.Digests = map[string]string{"q1": "abc"}, map[string]string{"q1": "abd"}
	// Two clients interleave, so serve_point's counts are not held exact.
	pa, pb := fakeLayers("serve_point", 1), fakeLayers("serve_point", 1)
	pb.set("dfs.bytes_written", 6)
	save(t, a, la, pa)
	save(t, b, lb, pb)
	rep, err := Compare(a, b, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, rep, "dml_churn", "dfs.bytes_written"); got != Mismatch {
		t.Errorf("dml_churn dfs.bytes_written: %s, want %s", got, Mismatch)
	}
	if got := verdictOf(t, rep, "dml_churn", "hive.sim_seconds"); got != Within {
		t.Errorf("dml_churn hive.sim_seconds: %s, want %s", got, Within)
	}
	if got := verdictOf(t, rep, "dml_churn", "digest.q1"); got != Mismatch {
		t.Errorf("digest: %s, want %s", got, Mismatch)
	}
	for _, d := range rep.Diffs {
		if d.Workload == "serve_point" {
			t.Errorf("serve_point must have no exact-count diffs, got %+v", d)
		}
	}
	if rep.OK() {
		t.Error("a count mismatch must fail the comparison")
	}
}
