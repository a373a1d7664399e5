// Package fault is the one fault schedule the storage and wire layers
// share. It owns the injected-error sentinel, the occurrence rule (an
// op, a subject substring, a window of matching occurrences and a
// verdict), the deterministic schedule built from rules, and the
// seeded decision to fire or not. A layer keeps only what differs: its
// op set, its verdict type, how it draws a verdict's flavour, and what
// a verdict does to the operation (internal/dfs for the file system,
// internal/netfault for connections).
package fault

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
)

// ErrInjected is the root of every injected error. Cleanup paths
// classify an error as transient, and hence retryable, with
// errors.Is(err, ErrInjected).
var ErrInjected = errors.New("injected fault")

// maxRun caps consecutive seeded injections, so a bounded retry loop
// (or a connection under fire) always eventually makes progress.
const maxRun = 3

// tally counts the faults an injector fired; mu also guards the
// injector's own state.
type tally struct {
	mu    sync.Mutex
	count int64
}

// Injected reports how many faults the injector has fired.
func (t *tally) Injected() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Rule counts the operations matching (Op, Subject) and fires Verdict
// on occurrences Nth..Nth+Times-1 of that count.
type Rule[O comparable, V any] struct {
	Op      O
	Subject string // substring of the operation's subject; empty matches all
	Nth     int    // 1-based occurrence to fire on (0 means 1)
	Times   int    // consecutive occurrences to fire on (0 means 1)
	Verdict V

	seen int
}

// Schedule fires exactly the operations its rules name, in arrival
// order: the deterministic injector for regression tests.
type Schedule[O comparable, V any] struct {
	tally
	rules []Rule[O, V]
}

// NewSchedule builds a deterministic schedule from rules.
func NewSchedule[O comparable, V any](rules ...Rule[O, V]) *Schedule[O, V] {
	return &Schedule[O, V]{rules: rules}
}

// Inject returns a copy of the verdict of the first rule that fires on
// this operation, or nil. Every matching rule counts the operation.
func (s *Schedule[O, V]) Inject(op O, subject string) *V {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.rules {
		r := &s.rules[i]
		if r.Op != op || !strings.Contains(subject, r.Subject) {
			continue
		}
		r.seen++
		nth := max(r.Nth, 1)
		if r.seen >= nth && r.seen-nth < max(r.Times, 1) {
			s.count++
			v := r.Verdict
			return &v
		}
	}
	return nil
}

// Seeded fires on roughly prob of the operations whose subject matches,
// drawn from a fixed-seed PRNG. The schedule is exactly reproducible
// for a serial workload; under concurrency the decisions still come
// from the seeded stream, so a seed reproduces the same fault density
// and interleaving family even when goroutine arrival order varies.
type Seeded struct {
	tally
	rng     *rand.Rand
	prob    float64
	subject string
	run     int
}

// NewSeeded fires on roughly prob of matching operations,
// deterministically from seed.
func NewSeeded(seed int64, prob float64) *Seeded {
	return &Seeded{rng: rand.New(rand.NewSource(seed)), prob: prob}
}

// Filter limits injection to subjects containing substr.
func (s *Seeded) Filter(substr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subject = substr
}

// Fire decides whether the operation on subject fails. When it does,
// draw runs under the injector's lock with the seeded stream, so the
// layer's flavour draw continues the one sequence the seed defines. A
// filtered-out subject consumes no draw.
func (s *Seeded) Fire(subject string, draw func(*rand.Rand)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !strings.Contains(subject, s.subject) {
		return false
	}
	if s.rng.Float64() >= s.prob || s.run >= maxRun {
		s.run = 0
		return false
	}
	s.run++
	s.count++
	draw(s.rng)
	return true
}
