package hive

import (
	"fmt"
	"sync"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/sqlparser"
)

// TestPlanCacheEvictsLeastRecentlyUsed prepares twice the cache's
// capacity in distinct texts: the cache stays at capacity, and a miss
// evicts the text used longest ago, not the one just hit.
func TestPlanCacheEvictsLeastRecentlyUsed(t *testing.T) {
	e := testEngine(t)
	text := func(i int) string { return fmt.Sprintf("SELECT v FROM t WHERE id = %d", i) }
	prepare := func(i int) *Prepared {
		t.Helper()
		p, err := e.Prepare(text(i))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first := prepare(0)
	for i := 1; i < planCacheCap; i++ {
		prepare(i)
	}
	if got := e.plans.len(); got != planCacheCap {
		t.Fatalf("len = %d after %d texts, want %d", got, planCacheCap, planCacheCap)
	}
	if prepare(0) != first { // a hit: text 0 is now the most recent
		t.Fatal("a cached text was parsed again")
	}
	prepare(planCacheCap) // evicts text 1, the least recently used
	if _, ok := e.plans.get(text(1)); ok {
		t.Error("the least recently used text survived an eviction")
	}
	if _, ok := e.plans.get(text(0)); !ok {
		t.Error("the text just hit was evicted")
	}
	for i := planCacheCap + 1; i < 2*planCacheCap; i++ {
		prepare(i)
	}
	if got := e.plans.len(); got != planCacheCap {
		t.Fatalf("len = %d after %d texts, want %d", got, 2*planCacheCap, planCacheCap)
	}
	size, hits, misses := e.PlanCacheStats()
	if size != planCacheCap || hits != 1 || misses != 2*planCacheCap {
		t.Errorf("stats = (%d, %d, %d), want (%d, 1, %d)", size, hits, misses, planCacheCap, 2*planCacheCap)
	}
}

// TestPrepareConcurrent prepares overlapping texts from eight
// goroutines: every lookup is counted once, as a hit or a miss, and
// each text maps to one *Prepared however the misses raced.
func TestPrepareConcurrent(t *testing.T) {
	e := testEngine(t)
	const workers, lookups, texts = 8, 400, 32
	var stats PlanCacheStats
	ec := &ExecContext{PlanStats: &stats}
	var mu sync.Mutex
	seen := map[string]*Prepared{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < lookups; i++ {
				sql := fmt.Sprintf("SELECT v FROM t WHERE id = %d", (i*7+w)%texts)
				p, err := e.PrepareCtx(ec, sql)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if q, ok := seen[sql]; ok && q != p {
					t.Errorf("%q prepared twice", sql)
				}
				seen[sql] = p
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	size, hits, misses := e.PlanCacheStats()
	if size != texts || len(seen) != texts {
		t.Errorf("cached %d texts, saw %d, want %d", size, len(seen), texts)
	}
	if hits+misses != workers*lookups || misses < texts {
		t.Errorf("engine hits %d + misses %d, want %d lookups with >= %d misses", hits, misses, workers*lookups, texts)
	}
	if h, m := stats.Hits.Load(), stats.Misses.Load(); h != hits || m != misses {
		t.Errorf("context counted (%d, %d), engine (%d, %d)", h, m, hits, misses)
	}
}

// TestBindCopiesOnce binds a cached two-parameter scan: the bound
// statement shares no node with the cached one, and Bind allocates
// one AST copy plus a literal per argument.
func TestBindCopiesOnce(t *testing.T) {
	e := testEngine(t)
	p, err := e.Prepare("SELECT id, v FROM bench WHERE grp = ? AND v >= ?")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams != 2 {
		t.Fatalf("NumParams = %d, want 2", p.NumParams)
	}
	args := []datum.Datum{datum.Int(3), datum.Float(0.5)}
	bound, err := p.Bind(args)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bound.String(), "SELECT id, v FROM bench WHERE ((grp = 3) AND (v >= 0.5))"; got != want {
		t.Fatalf("bound = %q, want %q", got, want)
	}
	cached := p.Stmt.(*sqlparser.SelectStmt)
	sel := bound.(*sqlparser.SelectStmt)
	if sel == cached || sel.From == cached.From || &sel.Items[0] == &cached.Items[0] {
		t.Fatal("the bound statement shares its select, table or items with the cached one")
	}
	nodes := map[sqlparser.Expr]bool{}
	sqlparser.WalkExpr(cached.Where, func(x sqlparser.Expr) bool { nodes[x] = true; return true })
	sqlparser.WalkExpr(sel.Where, func(x sqlparser.Expr) bool {
		switch x.(type) {
		case *sqlparser.ColumnRef: // immutable leaves are shared by design
		default:
			if nodes[x] {
				t.Errorf("bound node %v is the cached one", x)
			}
		}
		return true
	})
	if _, err := p.Bind(args[:1]); err == nil {
		t.Error("Bind with one argument for two placeholders succeeded")
	}

	identity := func(x sqlparser.Expr) sqlparser.Expr { return x }
	copyAllocs := testing.AllocsPerRun(100, func() { sqlparser.RewriteStatement(p.Stmt, identity) })
	bindAllocs := testing.AllocsPerRun(100, func() { p.Bind(args) })
	// One copy, a literal per argument and the substituting closure.
	if limit := copyAllocs + float64(p.NumParams) + 1; bindAllocs > limit {
		t.Errorf("Bind allocates %.0f times, want at most %.0f (one copy makes %.0f)", bindAllocs, limit, copyAllocs)
	}
}
