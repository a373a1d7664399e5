package fault

import (
	"math"
	"math/rand"
	"testing"
)

type op uint8

const (
	opCreate op = iota
	opWrite
	opRead
	opDelete
)

type step struct {
	op      op
	subject string
	fire    bool
}

// TestSchedule holds the occurrence rule, the deterministic schedule and
// the seeded decision to their contract: which operations fire, how many
// the injector counts, and that a seed is one fixed sequence.
func TestSchedule(t *testing.T) {
	schedule := func(rules ...Rule[op, string]) func(op, string) bool {
		s := NewSchedule(rules...)
		return func(o op, subject string) bool { return s.Inject(o, subject) != nil }
	}
	seeded := func(seed int64, prob float64, filter string) func(op, string) bool {
		s := NewSeeded(seed, prob)
		s.Filter(filter)
		return func(_ op, subject string) bool { return s.Fire(subject, func(*rand.Rand) {}) }
	}
	fires := func(n int) []step {
		steps := make([]step, n)
		for i := range steps {
			steps[i] = step{opWrite, "/f", i%(maxRun+1) != maxRun}
		}
		return steps
	}
	for _, tc := range []struct {
		name   string
		inject func(op, string) bool
		steps  []step
	}{
		{"nth", schedule(Rule[op, string]{Op: opCreate, Subject: "/t/", Nth: 2}), []step{
			{opCreate, "/t/a", false}, {opCreate, "/t/b", true}, {opCreate, "/t/c", false}}},
		{"nth_and_times", schedule(Rule[op, string]{Op: opWrite, Nth: 2, Times: 2}), []step{
			{opWrite, "", false}, {opRead, "", false}, {opWrite, "", true}, {opWrite, "", true}, {opWrite, "", false}}},
		{"times_and_subject", schedule(Rule[op, string]{Op: opDelete, Subject: "/a/", Times: 2}), []step{
			{opDelete, "/b/f1", false}, {opDelete, "/a/f1", true}, {opDelete, "/a/f1", true}, {opDelete, "/a/f1", false}}},
		{"times_unbounded", schedule(Rule[op, string]{Op: opWrite, Nth: 2, Times: math.MaxInt}), []step{
			{opWrite, "", false}, {opWrite, "", true}, {opWrite, "", true}, {opWrite, "", true}}},
		{"first_firing_rule_wins", schedule(
			Rule[op, string]{Op: opWrite, Nth: 2}, Rule[op, string]{Op: opWrite}), []step{
			{opWrite, "", true}, {opWrite, "", true}, {opWrite, "", false}}},
		{"seeded_run_bounded", seeded(7, 1.0, ""), fires(12)},
		{"seeded_subject_filter", seeded(7, 1.0, "/warehouse/"), []step{
			{opWrite, "/hbase/r0/wal", false}, {opWrite, "/warehouse/t/f", true}}},
		{"seeded_never_at_zero", seeded(7, 0, ""), []step{
			{opWrite, "/f", false}, {opWrite, "/f", false}, {opWrite, "/f", false}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, s := range tc.steps {
				if got := tc.inject(s.op, s.subject); got != s.fire {
					t.Fatalf("step %d (%d %q): fired %v, want %v", i, s.op, s.subject, got, s.fire)
				}
			}
		})
	}

	t.Run("injected_counts_fires", func(t *testing.T) {
		s := NewSchedule(Rule[op, string]{Op: opWrite, Times: 2, Verdict: "torn"})
		for i := 0; i < 4; i++ {
			if v := s.Inject(opWrite, ""); v != nil && *v != "torn" {
				t.Fatalf("verdict %q, want the rule's", *v)
			}
		}
		sd := NewSeeded(7, 1.0)
		for i := 0; i < 8; i++ {
			sd.Fire("", func(*rand.Rand) {})
		}
		if s.Injected() != 2 || sd.Injected() != 6 {
			t.Fatalf("Injected = %d and %d, want 2 and 6", s.Injected(), sd.Injected())
		}
	})

	// One seed is one sequence: decisions and the flavour draws that
	// follow them interleave on one stream, a filtered subject takes no
	// draw, and another seed gives another sequence.
	t.Run("seeded_reproducible", func(t *testing.T) {
		trace := func(seed int64) []int64 {
			s := NewSeeded(seed, 0.3)
			s.Filter("/warehouse/")
			var out []int64
			for i := 0; i < 200; i++ {
				subject := "/warehouse/f"
				if i%3 == 0 {
					subject = "/hbase/f"
				}
				if s.Fire(subject, func(r *rand.Rand) { out = append(out, r.Int63n(4096)) }) {
					out = append(out, int64(i))
				}
			}
			return out
		}
		a, b, c := trace(42), trace(42), trace(43)
		if len(a) == 0 {
			t.Fatal("seed 42 at p=0.3 fired nothing over 200 operations")
		}
		if len(a) != len(b) {
			t.Fatalf("seed 42 diverged: %d vs %d draws", len(a), len(b))
		}
		same := len(a) == len(c)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed 42 diverged at draw %d", i)
			}
			same = same && a[i] == c[i]
		}
		if same {
			t.Fatal("seeds 42 and 43 drew the same sequence")
		}
	})
}
