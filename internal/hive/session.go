package hive

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Session setting keys the engine and the DualTable handler recognize.
// Anything else set via SET is stored and listable but has no effect.
const (
	// VarForcePlan forces "EDIT" or "OVERWRITE" plans on DualTable DML
	// for this session; "" (or never setting it) leaves the choice to
	// the cost model.
	VarForcePlan = "dualtable.force.plan"
	// VarFollowingReads overrides the cost model's k (expected reads
	// after each modification) for this session.
	VarFollowingReads = "dualtable.following.reads"
	// VarReadEpoch pins every snapshot-capable table scan in the
	// session at the named manifest epoch — the session-level
	// equivalent of SELECT ... AS OF EPOCH n. Values: a non-negative
	// integer epoch; "" / "current" / "latest" restore current-epoch
	// reads. An explicit AS OF clause on a table reference wins over
	// the session setting. UPDATE and DELETE refuse to run while it is
	// set (their table rewrites would silently read stale data).
	VarReadEpoch = "read.epoch"
	// VarStatementTimeout bounds each statement's server-side
	// execution time when the session is served over the wire (a Go
	// duration string, e.g. "500ms" or "30s"; "0" disables, subject to
	// the server's configured maximum). The engine itself does not
	// enforce it — the serving layer derives a context deadline from
	// it; in-process callers use context.WithTimeout directly.
	VarStatementTimeout = "statement.timeout"
)

// SessionVars holds the per-session settings that used to be
// process-global knobs. All methods are safe for concurrent use, so a
// session can be reconfigured while one of its queries runs.
type SessionVars struct {
	mu         sync.RWMutex
	settings   map[string]string
	ratioHints map[string]float64
}

// NewSessionVars returns empty session settings.
func NewSessionVars() *SessionVars {
	return &SessionVars{
		settings:   map[string]string{},
		ratioHints: map[string]float64{},
	}
}

// Set stores a setting (keys are case-insensitive).
func (v *SessionVars) Set(key, val string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.settings[strings.ToLower(key)] = val
}

// Unset removes a setting, restoring the engine/handler default.
func (v *SessionVars) Unset(key string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.settings, strings.ToLower(key))
}

// Reset clears every setting and ratio hint, restoring the session to
// its initial state. The serving layer uses it to scrub connection
// state before a pooled connection is reused by a new borrower.
func (v *SessionVars) Reset() {
	v.mu.Lock()
	defer v.mu.Unlock()
	clear(v.settings)
	clear(v.ratioHints)
}

// Lookup returns a setting and whether it was ever set. A present but
// empty value is distinct from an absent key (e.g. force plan "").
func (v *SessionVars) Lookup(key string) (string, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	s, ok := v.settings[strings.ToLower(key)]
	return s, ok
}

// All returns a sorted copy of the settings as key/value pairs.
func (v *SessionVars) All() [][2]string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([][2]string, 0, len(v.settings))
	for k, val := range v.settings {
		out = append(out, [2]string{k, val})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// SetRatioHint pins the modification-ratio estimate for a statement
// key (see core.Handler.StatementKey) within this session.
func (v *SessionVars) SetRatioHint(key string, ratio float64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.ratioHints[key] = ratio
}

// RatioHint looks up a session-scoped ratio hint.
func (v *SessionVars) RatioHint(key string) (float64, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	r, ok := v.ratioHints[key]
	return r, ok
}

// ExecContext carries the per-call execution state — cancellation
// context, session settings, and observability hooks — through the
// engine, the MapReduce layer and the storage handlers. A nil
// *ExecContext is valid everywhere and means "no session, background
// context" (the legacy one-shot API).
type ExecContext struct {
	// Ctx cancels long scans and DML between MapReduce records.
	Ctx context.Context
	// Vars are the session settings (nil = engine defaults only).
	Vars *SessionVars
	// PlanObserver, when set, receives every plan decision made on
	// behalf of this context (the value is a core.PlanDecision; typed
	// as any to avoid an import cycle).
	PlanObserver func(any)
	// PlanStats, when set, accumulates this context's plan-cache
	// outcomes (sessions pass a per-session instance).
	PlanStats *PlanCacheStats
}

// PlanCacheStats counts plan-cache outcomes for one session: hits
// (the exact text was cached) and misses (it was parsed). Both fields
// are atomically updated, so a session shared across goroutines stays
// race-free.
type PlanCacheStats struct {
	Hits   atomic.Int64
	Misses atomic.Int64
}

// HitRate returns the fraction of lookups served from the cache
// (0 when nothing was looked up yet).
func (s *PlanCacheStats) HitRate() float64 {
	h, m := s.Hits.Load(), s.Misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// countPlanCache records one plan-cache outcome on the context.
func (ec *ExecContext) countPlanCache(hit bool) {
	if ec == nil || ec.PlanStats == nil {
		return
	}
	if hit {
		ec.PlanStats.Hits.Add(1)
	} else {
		ec.PlanStats.Misses.Add(1)
	}
}

// Context returns the call's context, defaulting to Background.
func (ec *ExecContext) Context() context.Context {
	if ec == nil || ec.Ctx == nil {
		//lint:ignore dtlint/ctxflow a nil ExecContext means the caller has no context; Background is the documented default
		return context.Background()
	}
	return ec.Ctx
}

// Err reports the context's cancellation state.
func (ec *ExecContext) Err() error {
	if ec == nil || ec.Ctx == nil {
		return nil
	}
	return ec.Ctx.Err()
}

// Var looks up a session setting (false when no session or unset).
func (ec *ExecContext) Var(key string) (string, bool) {
	if ec == nil || ec.Vars == nil {
		return "", false
	}
	return ec.Vars.Lookup(key)
}

// RatioHint looks up a session-scoped ratio hint.
func (ec *ExecContext) RatioHint(key string) (float64, bool) {
	if ec == nil || ec.Vars == nil {
		return 0, false
	}
	return ec.Vars.RatioHint(key)
}

// ObservePlan forwards a plan decision to the session's observer.
func (ec *ExecContext) ObservePlan(d any) {
	if ec != nil && ec.PlanObserver != nil {
		ec.PlanObserver(d)
	}
}
