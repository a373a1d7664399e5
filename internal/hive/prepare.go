package hive

import (
	"container/list"
	"sync"
	"sync/atomic"

	"dualtable/internal/datum"
	"dualtable/internal/sqlparser"
)

// Prepared is a compiled statement: the parse result of one SQL text
// plus its placeholder count. Prepared values are immutable and shared
// across sessions via the engine's plan cache; execution binds
// arguments into a fresh AST copy, never mutating the cached one.
type Prepared struct {
	SQL       string
	Stmt      sqlparser.Statement
	NumParams int
}

// Bind substitutes the '?' placeholders with argument literals,
// returning a new statement ready for ExecuteStmtCtx. It copies the
// AST once, and not at all when there are no placeholders.
func (p *Prepared) Bind(args []datum.Datum) (sqlparser.Statement, error) {
	return sqlparser.BindStatement(p.Stmt, p.NumParams, args)
}

// planCacheCap bounds the engine's compiled-statement cache.
const planCacheCap = 512

// planCache is a mutex-guarded LRU of Prepared statements keyed by
// exact SQL text.
type planCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *Prepared
	m   map[string]*list.Element

	hits, misses atomic.Int64
}

func newPlanCache(capacity int) *planCache {
	if capacity < 1 {
		capacity = 1
	}
	return &planCache{cap: capacity, ll: list.New(), m: map[string]*list.Element{}}
}

func (c *planCache) get(sql string) (*Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[sql]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*Prepared), true
}

// put caches p unless its text is cached already, and returns the
// cached entry, so racing misses on one text share the first parse.
func (c *planCache) put(p *Prepared) *Prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[p.SQL]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*Prepared)
	}
	c.m[p.SQL] = c.ll.PushFront(p)
	if c.ll.Len() > c.cap {
		last := c.ll.Remove(c.ll.Back()).(*Prepared)
		delete(c.m, last.SQL)
	}
	return p
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Prepare parses (or fetches from the LRU plan cache) one SQL
// statement. Repeated Prepare calls with the same text return the
// same *Prepared without reparsing.
func (e *Engine) Prepare(sql string) (*Prepared, error) {
	return e.PrepareCtx(nil, sql)
}

// PrepareCtx is Prepare with per-session cache accounting: hits and
// misses are also recorded on the execution context's PlanCacheStats
// when present. The cache is keyed by exact text; a text it does not
// hold is parsed.
func (e *Engine) PrepareCtx(ec *ExecContext, sql string) (*Prepared, error) {
	if p, ok := e.plans.get(sql); ok {
		e.plans.hits.Add(1)
		ec.countPlanCache(true)
		return p, nil
	}
	e.plans.misses.Add(1)
	ec.countPlanCache(false)
	stmt, n, err := sqlparser.ParseParams(sql)
	if err != nil {
		return nil, err
	}
	return e.plans.put(&Prepared{SQL: sql, Stmt: stmt, NumParams: n}), nil
}

// PlanCacheStats reports the plan cache's size, hits and misses.
func (e *Engine) PlanCacheStats() (size int, hits, misses int64) {
	return e.plans.len(), e.plans.hits.Load(), e.plans.misses.Load()
}
