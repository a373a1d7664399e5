package bench

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
)

// declaredNames returns the metric names a run of the given mode must
// emit: all of them and no others.
func declaredNames(traced bool) []string {
	var names []string
	if traced {
		for _, m := range Layers {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range E2E {
			names = append(names, m.Name)
		}
	}
	sort.Strings(names)
	return names
}

func emittedNames(r *Result) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func checkResult(t *testing.T, r *Result, traced bool) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || len(r.Errors) != 0 {
		t.Fatalf("run not correct: failed %d of %d, errors %q", r.Failed, r.Attempted, r.Errors)
	}
	if r.Attempted < 1 {
		t.Fatalf("attempted = %d", r.Attempted)
	}
	want, got := declaredNames(traced), emittedNames(r)
	if strings.Join(want, " ") != strings.Join(got, " ") {
		t.Errorf("emitted metrics differ from the declared ones:\n got  %v\n want %v", got, want)
	}
	for n, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", n, m.Value)
		}
		if m.Unit != unitOf(n) || m.Unit == "" {
			t.Errorf("%s has unit %q, declared %q", n, m.Unit, unitOf(n))
		}
		if !traced && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must be positive", n, m.Value)
		}
	}
	// The driver reads exactly four keys from the last line.
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.ContractLine()), &line); err != nil {
		t.Fatalf("contract line: %v", err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("contract line has keys %v", line)
	}
}

// Every workload, both passes, at the tiny scale: no failed op, every
// correctness check, every declared metric and nothing else, nothing
// leaked.
func TestSmoke(t *testing.T) {
	for _, def := range Workloads() {
		t.Run(def.name+"/end_to_end", func(t *testing.T) {
			r, _, err := Run(def, 7, 0.3, Tiny, false)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, false)
		})
		t.Run(def.name+"/traced", func(t *testing.T) {
			r, tf, err := Run(def, 7, 0.3, Tiny, true)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, true)
			for _, n := range []string{"server.conns_end", "server.active_ops_end", "core.pins_end", "core.condemned_paths_end", "server.queued", "server.shed"} {
				if v := r.Metrics[n].Value; v != 0 {
					t.Errorf("%s = %v, want 0", n, v)
				}
			}
			readOnly := def.name == "serve_stream" || def.name == "analytic_union"
			if w := r.Metrics["dfs.bytes_written"].Value; readOnly && w != 0 {
				t.Errorf("read-only workload wrote %v DFS bytes in its measured phase", w)
			} else if !readOnly && w == 0 {
				t.Errorf("write workload wrote no DFS bytes")
			}
			if tf == nil || len(tf.Spans) == 0 || len(tf.SelfTimes) == 0 || len(tf.Ladder) == 0 {
				t.Fatalf("trace is empty: %+v", tf)
			}
			ids := map[int]Span{}
			for _, s := range tf.Spans {
				ids[s.ID] = s
			}
			var children int
			for _, s := range tf.Spans {
				if s.Parent != 0 {
					children++
					if _, ok := ids[s.Parent]; !ok {
						t.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
					}
				}
				// An in-process workload's statements cross no wire:
				// driver, server and wire names may only appear on the
				// ladder's probes.
				if !def.wire && s.Class != probeClass {
					for _, layer := range []string{"driver.", "server.", "wire."} {
						if strings.HasPrefix(s.Name, layer) {
							t.Errorf("in-process workload has a %s span of class %s", s.Name, s.Class)
						}
					}
				}
			}
			if children == 0 {
				t.Error("no span has a parent")
			}
		})
	}
}

// Two traced runs of one seed on a one-session workload must agree on
// every exact count and digest; -compare relies on it. The tiny tables
// make the engine's row-order wobble (see countTolerance) relatively
// larger than at full scale — a few bytes of a 40 KB total — so the test
// allows half a percent where -compare allows a hundredth of one.
func TestExactCountsRepeat(t *testing.T) {
	for _, name := range []string{"analytic_union", "dml_churn"} {
		def := Workload(name)
		a, _, err := Run(def, 11, 0.3, Tiny, true)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := Run(def, 11, 0.3, Tiny, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range exactCounts {
			if !closeTo(a.Metrics[n].Value, b.Metrics[n].Value, 0.005) {
				t.Errorf("%s %s: %v then %v", name, n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
		}
		for c, d := range a.Digests {
			if b.Digests[c] != d {
				t.Errorf("%s digest of %s: %s then %s", name, c, d, b.Digests[c])
			}
		}
	}
}
