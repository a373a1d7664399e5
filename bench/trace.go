package bench

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dualtable/internal/dfs"
)

// TraceFile is what the traced pass writes beside its result: the
// spans, the per-name self times and the exact counts.
type TraceFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Spans     []Span             `json:"spans"`
	SelfTimes []SelfTime         `json:"self_times"`
	Counts    map[string]float64 `json:"counts"`
	Ladder    []LadderRow        `json:"ladder"`
}

// LadderRow is one line of the main class's outside-in decomposition:
// a layer's self time (from subtraction of medians) and its share of
// the statement.
type LadderRow struct {
	Layer string  `json:"layer"`
	Ms    float64 `json:"ms"`
	Share float64 `json:"share"`
}

// heapSampler records the peak live heap every 100 ms while a phase
// runs.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var m runtime.MemStats
		for {
			runtime.ReadMemStats(&m)
			if m.HeapAlloc > h.peak {
				h.peak = m.HeapAlloc
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.done.Wait()
	return h.peak
}

// runTraced is the per-layer pass. With one client it replays a fixed
// number of the workload's ops twice on one set-up: first clean, which
// gives the exact counts and the untraced latencies, then with a span
// around every statement and the layer ladder after every few of them.
// The end-to-end metrics never come from here.
func runTraced(def *workloadDef, seed int64, seconds float64, scale Scale) (*Result, *TraceFile, error) {
	res := newResult(def, seed, seconds, scale, true)
	e, err := setup(def, seed, scale, true)
	if err != nil {
		return nil, nil, err
	}
	desc, err := e.desc(def.primary)
	if err != nil {
		return nil, nil, err
	}
	fixedOps := func(n int, _ time.Duration, cycleEnd bool) bool { return n >= e.traceOps && cycleEnd }

	// ---- clean replay: counts and untraced latencies ----
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fs0 := e.db.FS.Metrics()
	epoch0, err := e.db.Handler.CurrentEpoch(desc)
	if err != nil {
		return nil, nil, err
	}
	user0 := def.userBytesOf(e)
	heap := startHeapSampler()
	clean := summarize(def, e.drive(fixedOps, nil))
	peak := heap.finish()
	runtime.ReadMemStats(&m1)
	fs1 := e.db.FS.Metrics()
	epoch1, err := e.db.Handler.CurrentEpoch(desc)
	if err != nil {
		return nil, nil, err
	}
	user1 := def.userBytesOf(e)

	// ---- traced replay with the ladder ----
	tr := newTracer()
	lad, err := newLadder(e, tr)
	if err != nil {
		return nil, nil, err
	}
	every := e.traceOps / 8
	if every > 16 {
		every = 16
	}
	if every < 1 {
		every = 1
	}
	var (
		written  [kindInsert + 1]int64
		userBy   [kindInsert + 1]int64
		lastFS   = e.db.FS.Metrics().BytesWritten
		lastUser = def.userBytesOf(e)
		stmts    int
		t0       = time.Now()
	)
	tracedRecs := e.drive(fixedOps, func(o *op, r *opRec) {
		if o.aux != nil {
			tr.add(0, "kvstore.flush", probeClass, t0.Add(time.Duration(r.start)), time.Duration(r.end-r.start))
			lastFS = e.db.FS.Metrics().BytesWritten
			return
		}
		id := tr.add(0, stmtSpanName(def.wire), o.class.name, t0.Add(time.Duration(r.start)), time.Duration(r.end-r.start))
		nowFS, nowUser := e.db.FS.Metrics().BytesWritten, def.userBytesOf(e)
		written[o.class.kind] += nowFS - lastFS
		userBy[o.class.kind] += nowUser - lastUser
		stmts++
		if stmts%every == 0 {
			round := tr.begin(id, "bench.ladder", o.class.name)
			lad.round(round)
			tr.end(round)
			// The ladder's own statements and flushes are not the
			// class's writes.
			nowFS, nowUser = e.db.FS.Metrics().BytesWritten, def.userBytesOf(e)
		}
		lastFS, lastUser = nowFS, nowUser
	})
	traced := summarize(def, tracedRecs)
	_, hits, misses := e.db.Engine.PlanCacheStats() // before the prepare probe adds its own
	lad.final()

	// ---- end state, checks, drain ----
	att, err := attachedTable(e, def.primary)
	if err != nil {
		return nil, nil, err
	}
	attBytes, attEntries := att.Size(), att.EntryCount()
	du, err := e.db.FS.Du("/")
	if err != nil {
		return nil, nil, err
	}
	dataSize, err := e.db.Handler.DataSize(desc)
	if err != nil {
		return nil, nil, err
	}
	pins := 0
	snap, err := e.db.Handler.OpenSnapshot(desc)
	if err != nil {
		return nil, nil, err
	}
	files := snap.Files()
	snap.Release()
	for _, p := range files {
		pins += e.db.FS.Pins(p)
	}
	condemned := len(e.db.Handler.CondemnedPaths())
	if err := def.verify(e); err != nil {
		res.Errors = append(res.Errors, "verify: "+err.Error())
	}
	srvStats := e.srv.Stats()
	lad.close()
	drained := e.teardown()

	res.Attempted = clean.attempted + traced.attempted + lad.attempted
	res.Failed = clean.failed + traced.failed + lad.failed
	for _, msg := range []string{clean.firstErr, traced.firstErr, lad.firstErr} {
		if msg != "" {
			res.Errors = append(res.Errors, msg)
		}
	}
	if drained.Conns != 0 || drained.ActiveOps != 0 || pins != 0 || condemned != 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("leak: %d conns, %d active ops, %d pins, %d condemned paths after drain",
			drained.Conns, drained.ActiveOps, pins, condemned))
	}

	// ---- metrics ----
	med := func(name string) float64 { return median(lad.samples[name]) }
	setMed := func(name string) {
		res.set(name, med(name))
		res.Samples[name] = len(lad.samples[name])
	}
	p50 := func(s *summary, sl slot) float64 { return percentile(s.slotLatencies(def, sl), 0.50) }
	cleanMain, tracedMain := p50(&clean, def.main), p50(&traced, def.main)
	res.set("bench.trace_overhead_pct", (tracedMain/cleanMain-1)*100)
	res.set("bench.main_p99_ms", percentile(clean.slotLatencies(def, def.main), 0.99))
	res.set("bench.second_p99_ms", percentile(clean.slotLatencies(def, def.second), 0.99))
	res.set("runtime.peak_heap_mb", float64(peak)/(1<<20))
	res.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
	res.set("runtime.gc_pause_total_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)

	// What the server, wire and driver add: a statement's wire time
	// minus its in-process time, from the ladder's paired probes.
	inprocMain := med("probe.inproc.main")
	for _, sl := range []slot{def.main, def.second} {
		suffix := ""
		if sl.firstRow {
			// serve_stream: the second slot is the first row of the
			// main class's statement.
			suffix = ".first_row"
		}
		w, in := "probe.wire.main"+suffix, "probe.inproc.main"+suffix
		if !sl.firstRow {
			w, in = "probe.wire."+sl.label, "probe.inproc."+sl.label
		}
		res.set("server.tax_ms."+sl.label, med(w)-med(in))
		res.set("hive.inproc_ms."+sl.label, med(in))
		res.Samples["server.tax_ms."+sl.label], res.Samples["hive.inproc_ms."+sl.label] = len(lad.samples[w]), len(lad.samples[in])
	}
	res.set("server.tax_ms.first_row", med("stream.first_row.wire")-med("stream.first_row.inproc"))
	res.set("server.admitted", float64(srvStats.Admitted))
	res.set("server.queued", float64(srvStats.Queued))
	res.set("server.shed", float64(srvStats.Shed))
	res.set("server.conns_end", float64(drained.Conns))
	res.set("server.active_ops_end", float64(drained.ActiveOps))

	for _, name := range []string{
		"driver.roundtrip_us", "driver.stream_rows_per_s_1c",
		"wire.rowbatch_encode_ns_per_row", "wire.rowbatch_decode_ns_per_row", "wire.bytes_per_row", "wire.frame_io_mb_per_s",
		"sqlparser.parse_us.main", "sqlparser.parse_us.second",
		"hive.prepare_hit_ns", "hive.prepare_miss_us",
		"mapred.shuffle_job_ms", "mapred.shuffle_bytes", "mapred.maponly_job_ms",
		"core.snapshot_open_us", "core.scan_drain_ms", "core.unionread_self_ms",
		"kvstore.put_us_per_cell", "kvstore.get_us", "kvstore.scan_ns_per_cell",
		"orcfile.open_us_per_file", "orcfile.decode_ns_per_row", "orcfile.bytes_per_row", "orcfile.write_ns_per_row",
		"dfs.read_mb_per_s", "dfs.write_mb_per_s",
	} {
		setMed(name)
	}
	// The flush metric pools the workload's own cycle-end flushes with
	// the ladder's.
	flushes := append(append(append([]float64(nil), clean.auxMs...), traced.auxMs...), lad.samples["kvstore.flush_ms"]...)
	res.set("kvstore.flush_ms", median(flushes))
	res.Samples["kvstore.flush_ms"] = len(flushes)

	res.set("hive.plan_cache_hit_rate", ratio(float64(hits), float64(hits+misses)))
	snapOpenMs := med("core.snapshot_open_us") / 1e3
	res.set("hive.engine_other_ms.main", inprocMain-snapOpenMs-med("core.scan_drain_ms"))
	res.set("hive.sim_seconds", clean.sim+traced.sim+lad.probeSim)

	res.set("core.snapshot_files", float64(lad.snapFiles))
	res.set("core.snapshot_attached_entries", float64(lad.attachedLast))
	res.set("core.write_amp", ratio(float64(fs1.BytesWritten-fs0.BytesWritten), float64(user1-user0)))
	res.set("core.edit_write_amp", ratio(float64(written[kindEdit]), float64(userBy[kindEdit])))
	res.set("core.overwrite_write_amp", ratio(float64(written[kindOverwrite]), float64(userBy[kindOverwrite])))
	// COMPACT stores no new user bytes: its cost is set against the
	// user bytes of the delta it folds (the EDITs and INSERTs since).
	res.set("core.compact_write_amp", ratio(float64(written[kindCompact]), float64(userBy[kindEdit]+userBy[kindInsert])))
	res.set("core.epochs_published", float64(epoch1-epoch0))
	res.set("core.attached_entries_peak", float64(lad.attachedPeak))
	res.set("core.condemned_paths_end", float64(condemned))
	res.set("core.pins_end", float64(pins))
	res.set("kvstore.attached_bytes_end", float64(attBytes))
	res.set("kvstore.entry_count_end", float64(attEntries))
	setDFS(res, fs0, fs1)
	res.set("dfs.space_amp_end", ratio(float64(du), float64(dataSize)))

	res.Classes = clean.classStats(def)
	res.OpCounts = map[string]int{"replay_ops": e.traceOps, "ladder_every": every, "ladder_rounds": stmts / every, "clients": 1}
	if def.digests != nil {
		res.Digests = def.digests(e)
	}
	res.Correct = len(res.Errors) == 0 && res.Failed == 0

	tf := &TraceFile{Workload: def.name, Seed: seed, Spans: tr.spans, SelfTimes: selfTimes(tr.spans), Counts: map[string]float64{}}
	for _, name := range exactCounts {
		tf.Counts[name] = res.Metrics[name].Value
	}
	orcMs := med("orcfile.scan_ms")
	total := inprocMain
	if def.wire {
		total += res.Metrics["server.tax_ms.main"].Value
	}
	rows := []LadderRow{
		{"core.snapshot_open", snapOpenMs, 0},
		{"orcfile open+decode", orcMs, 0},
		{"core.unionread (drain - orcfile)", med("core.unionread_self_ms"), 0},
		{"hive.engine_other", res.Metrics["hive.engine_other_ms.main"].Value, 0},
	}
	if def.wire {
		rows = append([]LadderRow{{"server+wire+driver tax", res.Metrics["server.tax_ms.main"].Value, 0}}, rows...)
	}
	for i := range rows {
		rows[i].Share = ratio(rows[i].Ms, total)
	}
	tf.Ladder = rows
	if err := res.finite(); err != nil {
		return nil, nil, fmt.Errorf("%w (errors so far: %q)", err, res.Errors)
	}
	return res, tf, nil
}

func setDFS(res *Result, a, b dfs.Metrics) {
	res.set("dfs.bytes_read", float64(b.BytesRead-a.BytesRead))
	res.set("dfs.bytes_written", float64(b.BytesWritten-a.BytesWritten))
	res.set("dfs.opens_for_read", float64(b.OpensForRead-a.OpensForRead))
	res.set("dfs.files_created", float64(b.FilesCreated-a.FilesCreated))
	res.set("dfs.files_deleted", float64(b.FilesDeleted-a.FilesDeleted))
}

// Print writes the main class's ladder and the self time per span name.
func (t *TraceFile) Print(w io.Writer) {
	fmt.Fprintf(w, "  ladder of the main class (self time by subtraction of medians):\n")
	for _, r := range t.Ladder {
		fmt.Fprintf(w, "    %-36s %9.3f ms %6.1f%%\n", r.Layer, r.Ms, r.Share*100)
	}
	fmt.Fprintf(w, "  spans: %d\n", len(t.Spans))
	for _, s := range t.SelfTimes {
		fmt.Fprintf(w, "    %-28s n=%-6d total=%10.3f ms self=%10.3f ms\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
	}
}

// Save writes the trace file into dir.
func (t *TraceFile) Save(dir string) error {
	return writeJSON(filepath.Join(dir, "trace-"+t.Workload+".json"), t)
}
