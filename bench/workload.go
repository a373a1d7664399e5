package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"dualtable"
	"dualtable/internal/server"
)

// Scale selects the data and op-count sizes: Full is what the numbers
// are taken at, Tiny is the smoke-test size (each pass under 2 s).
type Scale int

const (
	Full Scale = iota
	Tiny
)

func (s Scale) String() string {
	if s == Tiny {
		return "tiny"
	}
	return "full"
}

// pick returns the full or tiny value of a size.
func (s Scale) pick(full, tiny int) int {
	if s == Tiny {
		return tiny
	}
	return full
}

// slot names one of the two latencies every workload reports: which
// class, whether it is the whole statement or its time to first row,
// and which percentile is its tail. The tail percentile is fixed per
// workload so that at least minBeyond samples lie beyond it in a run
// of the declared length.
type slot struct {
	label    string
	class    *class
	firstRow bool
	tail     float64
}

// workloadDef is one benchmark workload: a table set, a seeded op
// sequence per client, and the checks that make a wrong answer count
// as a failed op.
type workloadDef struct {
	name string
	why  string
	// wire runs the clients as database/sql connections to a loopback
	// dtserver; otherwise they are in-process Sessions.
	wire    bool
	clients int
	classes []*class
	main    slot
	second  slot
	// primary is the table the layer ladder probes, projection the
	// columns of it the main class reads.
	primary    string
	projection []string
	// build creates and loads the tables and sets e.gens, e.warmupOps
	// and e.traceOps.
	build func(e *env) error
	// verify runs the after-run checks against the live tables.
	verify func(e *env) error
	// userBytes, for workloads that write, is the running total of
	// bytes the statements so far asked to store (writeUserBytes).
	userBytes func(e *env) int64
	// digests, for workloads that keep them, names each class's
	// expected result digest.
	digests func(e *env) map[string]string
}

func (d *workloadDef) userBytesOf(e *env) int64 {
	if d.userBytes == nil {
		return 0
	}
	return d.userBytes(e)
}

func (d *workloadDef) classIndex(c *class) int {
	for i, x := range d.classes {
		if x == c {
			return i
		}
	}
	return -1
}

// generator yields one client's seeded op sequence. probe makes an
// extra op of a class for the layer ladder; its effect enters the
// workload's model like any other op.
type generator interface {
	next() op
	probe(c *class) op
}

// env is one set-up instance of a workload.
type env struct {
	def   *workloadDef
	seed  int64
	scale Scale
	db    *dualtable.DB
	srv   *server.Server
	addr  string
	gens  []generator
	conns []conn
	// warmupOps is the untimed op count per client run inside set-up;
	// traceOps the fixed op count of each traced replay.
	warmupOps int
	traceOps  int
	// state is the workload's own model.
	state any
}

// setup builds a fresh database, loads the workload's tables, starts
// the loopback server when the workload (or the traced ladder) needs
// one, connects the clients and runs the warm-up. All of it is set-up
// time. The traced pass runs a single client.
func setup(def *workloadDef, seed int64, scale Scale, traced bool) (*env, error) {
	db, err := dualtable.Open(dualtable.DefaultConfig())
	if err != nil {
		return nil, err
	}
	e := &env{def: def, seed: seed, scale: scale, db: db}
	if err := def.build(e); err != nil {
		return nil, fmt.Errorf("%s: build: %w", def.name, err)
	}
	clients := def.clients
	if traced {
		clients = 1
	}
	if def.wire || traced {
		e.srv = server.New(db, serverConfig())
		addr, err := e.srv.Start()
		if err != nil {
			return nil, fmt.Errorf("%s: start server: %w", def.name, err)
		}
		e.addr = addr.String()
	}
	for i := 0; i < clients; i++ {
		var c conn
		if def.wire {
			if c, err = dialWire(e.addr); err != nil {
				e.teardown()
				return nil, fmt.Errorf("%s: dial: %w", def.name, err)
			}
		} else {
			c = newSessConn(db)
		}
		e.conns = append(e.conns, c)
	}
	warm := e.drive(func(n int, _ time.Duration, cycleEnd bool) bool { return n >= e.warmupOps && cycleEnd }, nil)
	if s := summarize(def, warm); s.failed > 0 {
		e.teardown()
		return nil, fmt.Errorf("%s: warm-up: %d of %d ops failed: %s", def.name, s.failed, s.attempted, s.firstErr)
	}
	return e, nil
}

// teardown closes the clients and drains the server, returning what it
// reports once they are gone (zero without a server). Shutdown returns
// only after every connection goroutine has exited, so the stats are
// final without polling.
func (e *env) teardown() server.Stats {
	for _, c := range e.conns {
		c.close()
	}
	e.conns = nil
	var st server.Stats
	if e.srv != nil {
		e.srv.Shutdown(10 * time.Second)
		st = e.srv.Stats()
		e.srv = nil
	}
	return st
}

// opRec is one executed op.
type opRec struct {
	class  int // index into def.classes; -1 for an aux action
	failed bool
	err    string
	start  int64 // ns since the phase began
	end    int64
	first  int64 // ns from start to first row; 0 without rows
	work   int64 // result rows delivered plus rows affected
	sim    float64
	// cycleEnd marks the last statement of a workload cycle.
	cycleEnd bool
}

// stopFunc decides after each op whether a client is done: n is the
// client's op count so far, now the time since the phase began.
type stopFunc func(n int, now time.Duration, cycleEnd bool) bool

// drive runs every client's sequence in a closed loop (the next op is
// issued when the previous one returned) until stop says so. observe,
// when set, sees each op after it finished; it is only used by the
// single-client traced pass.
func (e *env) drive(stop stopFunc, observe func(o *op, r *opRec)) [][]opRec {
	recs := make([][]opRec, len(e.conns))
	t0 := time.Now()
	var wg sync.WaitGroup
	for ci := range e.conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			gen, c := e.gens[ci], e.conns[ci]
			n := 0
			for {
				o := gen.next()
				r := e.runOp(c, &o, t0)
				if observe != nil {
					observe(&o, &r)
				}
				recs[ci] = append(recs[ci], r)
				n++
				if stop(n, time.Since(t0), o.cycleEnd) {
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	return recs
}

// runOp executes one op and judges it. A statement error or a wrong
// answer marks the op failed; nothing here panics the runner.
func (e *env) runOp(c conn, o *op, t0 time.Time) opRec {
	r := opRec{class: -1, start: int64(time.Since(t0)), cycleEnd: o.cycleEnd}
	if o.aux != nil {
		err := o.aux()
		r.end = int64(time.Since(t0))
		if err != nil {
			r.failed, r.err = true, "aux: "+err.Error()
		}
		return r
	}
	r.class = e.def.classIndex(o.class)
	res, err := c.run(o)
	r.end = int64(time.Since(t0))
	if err == nil && o.check != nil {
		err = o.check(res)
	}
	if err != nil {
		r.failed, r.err = true, o.class.name+": "+err.Error()
		return r
	}
	r.first = int64(res.firstRow)
	r.work = res.rows + res.affected
	r.sim = res.sim
	return r
}

// ClassStats summarises one statement class of a run.
type ClassStats struct {
	N     int     `json:"n"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// P95Resolved says at least minBeyond samples lie beyond the p95.
	P95Resolved bool `json:"p95_resolved"`
}

// summary is the arithmetic over one phase's op records.
type summary struct {
	attempted, failed int
	firstErr          string
	// lat holds each class's successful statement latencies in ms;
	// first the time-to-first-row latencies of its queries.
	lat   [][]float64
	first [][]float64
	// stmtRates and workRates are the per-segment throughputs.
	stmtRates []float64
	workRates []float64
	auxMs     []float64
	sim       float64
	stmts     int
}

func summarize(def *workloadDef, recs [][]opRec) summary {
	s := summary{lat: make([][]float64, len(def.classes)), first: make([][]float64, len(def.classes))}
	var done []opRec
	for _, cr := range recs {
		for _, r := range cr {
			if r.class < 0 {
				if r.failed {
					s.noteErr(r.err)
				}
				s.auxMs = append(s.auxMs, float64(r.end-r.start)/1e6)
				// An aux action that closes a cycle closes it for the
				// statement before it. Only one-client workloads have
				// aux actions, so that statement is the last one kept.
				if r.cycleEnd && len(done) > 0 {
					done[len(done)-1].cycleEnd = true
				}
				continue
			}
			s.attempted++
			if r.failed {
				s.failed++
				s.noteErr(r.err)
				continue
			}
			s.stmts++
			s.sim += r.sim
			s.lat[r.class] = append(s.lat[r.class], float64(r.end-r.start)/1e6)
			if r.first > 0 {
				s.first[r.class] = append(s.first[r.class], float64(r.first)/1e6)
			}
			done = append(done, r)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].end < done[j].end })
	ends := make([]float64, len(done))
	ones := make([]float64, len(done))
	work := make([]float64, len(done))
	cut := make([]bool, len(done))
	for i, r := range done {
		ends[i], ones[i], work[i], cut[i] = float64(r.end)/1e9, 1, float64(r.work), r.cycleEnd
	}
	s.stmtRates = segmentRates(ends, ones, cut)
	s.workRates = segmentRates(ends, work, cut)
	return s
}

func (s *summary) noteErr(msg string) {
	if s.firstErr == "" {
		s.firstErr = msg
	}
}

// slotLatencies returns the sorted latencies a slot reports.
func (s *summary) slotLatencies(def *workloadDef, sl slot) []float64 {
	i := def.classIndex(sl.class)
	if sl.firstRow {
		return sortedCopy(s.first[i])
	}
	return sortedCopy(s.lat[i])
}

func (s *summary) classStats(def *workloadDef) map[string]ClassStats {
	out := map[string]ClassStats{}
	for i, c := range def.classes {
		v := sortedCopy(s.lat[i])
		if len(v) == 0 {
			continue
		}
		out[c.name] = ClassStats{
			N: len(v), P50Ms: percentile(v, 0.50), P95Ms: percentile(v, 0.95), P99Ms: percentile(v, 0.99),
			P95Resolved: tailSupported(len(v), 0.95),
		}
	}
	return out
}

// Run executes one workload once: the end-to-end run, or with traced
// the per-layer pass (which also returns the trace).
func Run(def *workloadDef, seed int64, seconds float64, scale Scale, traced bool) (*Result, *TraceFile, error) {
	if traced {
		return runTraced(def, seed, seconds, scale)
	}
	res, err := runEndToEnd(def, seed, seconds, scale)
	return res, nil, err
}

// setupRepeats is how many times a run sets the workload up; setup_s
// is the median, so one slow set-up does not move it.
const setupRepeats = 5

// runEndToEnd is the untraced run: set up (several times, keeping the
// last), measure for the given time, verify, and report the end-to-end
// metrics.
func runEndToEnd(def *workloadDef, seed int64, seconds float64, scale Scale) (*Result, error) {
	res := newResult(def, seed, seconds, scale, false)
	var setups []float64
	var e *env
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.teardown()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setup(def, seed, scale, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	limit := time.Duration(seconds * float64(time.Second))
	recs := e.drive(func(_ int, now time.Duration, cycleEnd bool) bool { return now >= limit && cycleEnd }, nil)
	runtime.ReadMemStats(&m1)

	s := summarize(def, recs)
	res.Attempted, res.Failed = s.attempted, s.failed
	if s.firstErr != "" {
		res.Errors = append(res.Errors, s.firstErr)
	}
	if err := def.verify(e); err != nil {
		res.Errors = append(res.Errors, "verify: "+err.Error())
	}
	if d := e.teardown(); d.Conns != 0 || d.ActiveOps != 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("server did not drain: %d conns, %d active ops", d.Conns, d.ActiveOps))
	}
	if s.stmts == 0 {
		return nil, errors.New(def.name + ": no statement completed")
	}

	res.Classes = s.classStats(def)
	res.OpCounts = map[string]int{"statements": s.stmts, "clients": def.clients, "setups": setupRepeats}
	res.set("setup_s", median(setups))
	res.setSpread("stmts_per_s", s.stmtRates)
	res.setSpread("rows_per_s", s.workRates)
	res.set("alloc_kb_per_stmt", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(s.stmts))
	for _, sl := range []slot{def.main, def.second} {
		lat := s.slotLatencies(def, sl)
		if len(lat) == 0 {
			return nil, fmt.Errorf("%s: no %s sample", def.name, sl.label)
		}
		res.set(sl.label+"_p50_ms", percentile(lat, 0.50))
		res.set(sl.label+"_tail_ms", percentile(lat, sl.tail))
		res.Samples[sl.label+"_p50_ms"], res.Samples[sl.label+"_tail_ms"] = len(lat), len(lat)
		if !tailSupported(len(lat), sl.tail) {
			res.Notes = append(res.Notes, fmt.Sprintf("%s_tail_ms: fewer than %d of %d samples beyond p%.0f", sl.label, minBeyond, len(lat), sl.tail*100))
		}
	}
	res.Samples["setup_s"] = setupRepeats
	res.Samples["stmts_per_s"], res.Samples["rows_per_s"], res.Samples["alloc_kb_per_stmt"] = s.stmts, s.stmts, s.stmts
	res.Correct = len(res.Errors) == 0 && res.Failed == 0
	if err := res.finite(); err != nil {
		return nil, err
	}
	return res, nil
}
