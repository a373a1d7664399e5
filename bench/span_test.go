package bench

import (
	"math"
	"testing"
)

func selfOf(t *testing.T, st []SelfTime, name string) SelfTime {
	t.Helper()
	for _, s := range st {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no self time for %q in %+v", name, st)
	return SelfTime{}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	const msNs = int64(1e6)
	spans := []Span{
		// A statement of 100 ms with two children that overlap each
		// other (20..60 and 40..80: their union covers 60 ms) and one
		// that sticks out past the parent's end (90..120: 10 ms inside).
		{ID: 1, Parent: 0, Name: "stmt", StartNs: 0, EndNs: 100 * msNs},
		{ID: 2, Parent: 1, Name: "open", StartNs: 20 * msNs, EndNs: 60 * msNs},
		{ID: 3, Parent: 1, Name: "drain", StartNs: 40 * msNs, EndNs: 80 * msNs},
		{ID: 4, Parent: 1, Name: "late", StartNs: 90 * msNs, EndNs: 120 * msNs},
		// A grandchild: 10 ms of drain is decode.
		{ID: 5, Parent: 3, Name: "decode", StartNs: 50 * msNs, EndNs: 60 * msNs},
		// A second statement with no children.
		{ID: 6, Parent: 0, Name: "stmt", StartNs: 200 * msNs, EndNs: 230 * msNs},
	}
	st := selfTimes(spans)
	stmt := selfOf(t, st, "stmt")
	if stmt.Count != 2 || math.Abs(stmt.TotalMs-130) > 1e-9 {
		t.Errorf("stmt: count %d total %v, want 2 and 130", stmt.Count, stmt.TotalMs)
	}
	// 100 - (60 + 10) for the first, 30 for the second.
	if math.Abs(stmt.SelfMs-60) > 1e-9 {
		t.Errorf("stmt self = %v ms, want 60", stmt.SelfMs)
	}
	if d := selfOf(t, st, "drain"); math.Abs(d.SelfMs-30) > 1e-9 {
		t.Errorf("drain self = %v ms, want 30 (40 minus its 10 ms child)", d.SelfMs)
	}
	if d := selfOf(t, st, "decode"); math.Abs(d.SelfMs-10) > 1e-9 {
		t.Errorf("decode self = %v ms, want 10", d.SelfMs)
	}
	// Self times of a tree sum to its root's duration when no child
	// leaves its parent: check on the subtree without "late".
	var sum float64
	for _, name := range []string{"open", "drain", "decode"} {
		sum += selfOf(t, st, name).SelfMs
	}
	if math.Abs(sum-(40+30+10)) > 1e-9 {
		t.Errorf("children self times sum to %v", sum)
	}
}

func TestTracerParentsAndOrder(t *testing.T) {
	tr := newTracer()
	root := tr.begin(0, "driver.stmt", "group_scan")
	kid := tr.begin(root, "core.snapshot_open", probeClass)
	tr.end(kid)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].Parent != 0 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if tr.spans[1].StartNs < tr.spans[0].StartNs || tr.spans[1].EndNs > tr.spans[0].EndNs {
		t.Errorf("child %+v not inside parent %+v", tr.spans[1], tr.spans[0])
	}
}
