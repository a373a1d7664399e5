package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the declarations in spec.go")

const benchmarkJSON = "../BENCHMARK.json"

// BENCHMARK.json is what the driver reads and spec.go is what the code
// emits; they must say the same thing.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want, err := json.MarshalIndent(declaredBenchmark(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(benchmarkJSON, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the declarations in spec.go; run `go test -run TestBenchmarkJSONMatchesSpec -update` in bench/", benchmarkJSON)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(got))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("%s: %v", benchmarkJSON, err)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want exactly [bench]", f.Paths)
	}
	if len(got) > 64<<10 {
		t.Errorf("%s is %d bytes, over the 64 KiB limit", benchmarkJSON, len(got))
	}
}

func TestSpecWithinContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n, u, better string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, name)
		}
		if !unit.MatchString(u) {
			t.Errorf("%s %s: unit %q does not match %v", kind, n, u, unit)
		}
		if better != lower && better != higher {
			t.Errorf("%s %s: better = %q", kind, n, better)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	ws := Workloads()
	if len(ws) < 2 || len(ws) > 8 {
		t.Errorf("%d workloads, want 2..8", len(ws))
	}
	for _, w := range ws {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q invalid or reused", w.name)
		}
		seen[w.name] = true
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(E2E) < 1 || len(E2E) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(E2E))
	}
	var setup *E2EMetric
	for i, m := range E2E {
		check("end-to-end", m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &E2E[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != lower {
		t.Errorf("setup_s must be declared with unit s and better lower: %+v", setup)
	} else {
		for _, m := range E2E {
			if m.Bound > setup.Bound {
				t.Errorf("%s has a larger bound (%v) than setup_s (%v)", m.Name, m.Bound, setup.Bound)
			}
		}
	}
	if len(Layers) < 1 || len(Layers) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(Layers))
	}
	e2eOrWorkload := func(s string) bool {
		for _, m := range E2E {
			if strings.Contains(s, m.Name) {
				return true
			}
		}
		for _, w := range ws {
			if strings.Contains(s, w.name) {
				return true
			}
		}
		return false
	}
	for _, m := range Layers {
		check("per-layer", m.Name, m.Unit, m.Better)
		// Every layer metric says which end-to-end metric on which
		// workload it should move, or that it is a guard ("none: ...",
		// "space: ...", "negligible ...", "nothing measurable ...").
		guard := strings.HasPrefix(m.Moves, "none:") || strings.HasPrefix(m.Moves, "space:") ||
			strings.HasPrefix(m.Moves, "negligible") || strings.HasPrefix(m.Moves, "nothing measurable")
		if m.Moves == "" || (!guard && !e2eOrWorkload(m.Moves)) {
			t.Errorf("%s: Moves %q names no end-to-end metric or workload", m.Name, m.Moves)
		}
	}
	for _, n := range exactCounts {
		if unitOf(n) == "" {
			t.Errorf("exact count %q is not a declared metric", n)
		}
	}
}
