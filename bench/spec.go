package bench

// This file declares what the benchmark measures. BENCHMARK.json at
// the repository root repeats the names, units, directions and bounds;
// spec_test.go keeps the two in step.

const (
	lower  = "lower"
	higher = "higher"
)

// E2EMetric is an end-to-end metric: something a user of the system
// sees, with the share of the parent's median it may worsen by before
// a change counts as a regression.
type E2EMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// LayerMetric is a single layer's metric from the traced pass. Moves
// names the end-to-end metric and workload a change in it should show
// up in (or says that it is a guard that should not move at all).
type LayerMetric struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// RunSeconds is how long one run measures.
const RunSeconds = 20

// E2E lists the end-to-end metrics. Every workload reports every one
// of them: main and second are the workload's two latency slots (see
// Workloads), so the same names mean group_scan and point_update on
// serve_point and q1 and q12_join on analytic_union.
var E2E = []E2EMetric{
	{"setup_s", "s", lower, 0.25},
	{"stmts_per_s", "1/s", higher, 0.25},
	{"rows_per_s", "1/s", higher, 0.25},
	{"main_p50_ms", "ms", lower, 0.25},
	{"main_tail_ms", "ms", lower, 0.25},
	{"second_p50_ms", "ms", lower, 0.25},
	{"second_tail_ms", "ms", lower, 0.25},
	{"alloc_kb_per_stmt", "KB", lower, 0.03},
}

// Layers lists the per-layer metrics of the traced pass, outside in.
var Layers = []LayerMetric{
	{"bench.trace_overhead_pct", "%", lower, "none: traced vs untraced main p50 of the same replay; bounds how far the traced numbers can be trusted"},
	{"bench.main_p99_ms", "ms", lower, "main_tail_ms @ every workload (1 client, informational)"},
	{"bench.second_p99_ms", "ms", lower, "second_tail_ms @ every workload (1 client, informational)"},
	{"runtime.peak_heap_mb", "MB", lower, "alloc_kb_per_stmt, main_tail_ms @ every workload"},
	{"runtime.gc_cycles", "count", lower, "alloc_kb_per_stmt, main_tail_ms @ every workload"},
	{"runtime.gc_pause_total_ms", "ms", lower, "main_tail_ms, second_tail_ms @ every workload"},

	{"driver.roundtrip_us", "us", lower, "main_p50_ms, second_p50_ms @ serve_point; not serve_stream or the in-process workloads"},
	{"driver.stream_rows_per_s_1c", "1/s", higher, "rows_per_s @ serve_stream"},

	{"server.tax_ms.main", "ms", lower, "main_p50_ms @ serve_point, serve_stream; not analytic_union, dml_churn"},
	{"server.tax_ms.second", "ms", lower, "second_p50_ms @ serve_point; not analytic_union, dml_churn"},
	{"server.tax_ms.first_row", "ms", lower, "second_p50_ms @ serve_stream"},
	{"server.admitted", "count", higher, "none: admission is not exercised with two clients; equals the statements sent"},
	{"server.queued", "count", lower, "failed ops @ serve_point, serve_stream (expected 0)"},
	{"server.shed", "count", lower, "failed ops @ serve_point, serve_stream (expected 0)"},
	{"server.conns_end", "count", lower, "none: leak guard, must be 0 on every workload or the run is not correct"},
	{"server.active_ops_end", "count", lower, "none: leak guard, must be 0 on every workload or the run is not correct"},

	{"wire.rowbatch_encode_ns_per_row", "ns", lower, "rows_per_s, main_tail_ms @ serve_stream; not serve_point"},
	{"wire.rowbatch_decode_ns_per_row", "ns", lower, "rows_per_s, main_tail_ms @ serve_stream; not serve_point"},
	{"wire.bytes_per_row", "B", lower, "rows_per_s @ serve_stream"},
	{"wire.frame_io_mb_per_s", "MB/s", higher, "rows_per_s @ serve_stream; not serve_point"},

	{"sqlparser.parse_us.main", "us", lower, "nothing measurable today; guards the evaluator collapse (ROADMAP item 4)"},
	{"sqlparser.parse_us.second", "us", lower, "nothing measurable today; guards the evaluator collapse (ROADMAP item 4)"},

	{"hive.prepare_hit_ns", "ns", lower, "main_p50_ms, second_p50_ms @ serve_point; not serve_stream"},
	{"hive.prepare_miss_us", "us", lower, "setup_s @ every workload; stmts_per_s @ dml_churn (literal INSERT text)"},
	{"hive.plan_cache_hit_rate", "ratio", higher, "main_p50_ms @ serve_point"},
	{"hive.inproc_ms.main", "ms", lower, "main_p50_ms @ every workload (it is the end-to-end number in process)"},
	{"hive.inproc_ms.second", "ms", lower, "second_p50_ms @ every workload"},
	{"hive.engine_other_ms.main", "ms", lower, "main_p50_ms, stmts_per_s @ analytic_union; not serve_stream"},
	{"hive.sim_seconds", "sim_s", lower, "none: the paper's simulated clock must not move; exact on one-session workloads"},

	{"mapred.shuffle_job_ms", "ms", lower, "main_p50_ms, stmts_per_s @ analytic_union; not serve_point, serve_stream (map-only)"},
	{"mapred.shuffle_bytes", "B", lower, "main_p50_ms @ analytic_union (exact count)"},
	{"mapred.maponly_job_ms", "ms", lower, "main_p50_ms @ serve_point, rows_per_s @ serve_stream; not second_p50_ms @ analytic_union"},

	{"core.snapshot_open_us", "us", lower, "main_p50_ms, second_p50_ms @ serve_point, main_p50_ms @ dml_churn (opened twice per EDIT); not serve_stream, analytic_union"},
	{"core.snapshot_files", "count", lower, "main_p50_ms @ serve_point (per-file ORC open)"},
	{"core.snapshot_attached_entries", "count", lower, "main_p50_ms @ serve_point, analytic_union (UNION READ merge work)"},
	{"core.scan_drain_ms", "ms", lower, "main_p50_ms, stmts_per_s @ analytic_union; main_p50_ms @ serve_point; not second_p50_ms @ dml_churn"},
	{"core.unionread_self_ms", "ms", lower, "main_p50_ms @ analytic_union, serve_point"},
	{"core.write_amp", "ratio", lower, "stmts_per_s @ dml_churn; exact on one-session workloads"},
	{"core.edit_write_amp", "ratio", lower, "main_p50_ms @ dml_churn, second_p50_ms @ serve_point"},
	{"core.overwrite_write_amp", "ratio", lower, "second_p50_ms @ dml_churn"},
	{"core.compact_write_amp", "ratio", lower, "stmts_per_s @ dml_churn, serve_point"},
	{"core.epochs_published", "count", lower, "none: one per publishing statement; exact on one-session workloads"},
	{"core.attached_entries_peak", "count", lower, "main_p50_ms @ serve_point, dml_churn (delta a scan must merge)"},
	{"core.condemned_paths_end", "count", lower, "none: cleanup-debt guard, must be 0 on every workload or the run is not correct"},
	{"core.pins_end", "count", lower, "none: leak guard, must be 0 on every workload or the run is not correct"},

	{"kvstore.put_us_per_cell", "us", lower, "main_p50_ms @ dml_churn, second_p50_ms @ serve_point; not analytic_union, serve_stream"},
	{"kvstore.get_us", "us", lower, "main_p50_ms @ dml_churn; not analytic_union, serve_stream"},
	{"kvstore.scan_ns_per_cell", "ns", lower, "core.snapshot_open_us, then main_p50_ms @ serve_point"},
	{"kvstore.flush_ms", "ms", lower, "stmts_per_s @ dml_churn (cycle-end flush), core.write_amp"},
	{"kvstore.attached_bytes_end", "B", lower, "space: grows without a major compaction (ROADMAP item 1)"},
	{"kvstore.entry_count_end", "count", lower, "space: grows without a major compaction (ROADMAP item 1)"},

	{"orcfile.open_us_per_file", "us", lower, "main_p50_ms @ serve_point (8 small files); not serve_stream"},
	{"orcfile.decode_ns_per_row", "ns", lower, "main_p50_ms @ analytic_union, rows_per_s @ serve_stream"},
	{"orcfile.bytes_per_row", "B", lower, "dfs.bytes_read, then main_p50_ms @ analytic_union"},
	{"orcfile.write_ns_per_row", "ns", lower, "second_p50_ms @ dml_churn (OVERWRITE), stmts_per_s @ dml_churn (COMPACT); not read-only workloads"},

	{"dfs.read_mb_per_s", "MB/s", higher, "negligible today; recorded so a regression is attributable"},
	{"dfs.write_mb_per_s", "MB/s", higher, "negligible today; recorded so a regression is attributable"},
	{"dfs.bytes_read", "B", lower, "main_p50_ms @ analytic_union; exact on one-session workloads"},
	{"dfs.bytes_written", "B", lower, "core.write_amp; 0 on serve_stream and analytic_union; exact on one-session workloads"},
	{"dfs.opens_for_read", "count", lower, "main_p50_ms @ serve_point (per-file open)"},
	{"dfs.files_created", "count", lower, "core.write_amp @ dml_churn"},
	{"dfs.files_deleted", "count", lower, "dfs.space_amp_end @ dml_churn"},
	{"dfs.space_amp_end", "ratio", lower, "space: bytes stored per byte of live table data"},
}

func unitOf(name string) string {
	for _, m := range E2E {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range Layers {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

func boundOf(name string) (float64, bool) {
	for _, m := range E2E {
		if m.Name == name {
			return m.Bound, true
		}
	}
	return 0, false
}

func betterOf(name string) string {
	for _, m := range E2E {
		if m.Name == name {
			return m.Better
		}
	}
	for _, m := range Layers {
		if m.Name == name {
			return m.Better
		}
	}
	return ""
}

// exactCounts are the per-layer counts that must repeat exactly between
// two runs of one commit on the one-session workloads.
var exactCounts = []string{
	"hive.sim_seconds", "core.write_amp", "dfs.bytes_written", "mapred.shuffle_bytes",
	"core.epochs_published", "dfs.files_created", "dfs.files_deleted",
}

// Workloads returns the four workloads in run order.
func Workloads() []*workloadDef {
	return []*workloadDef{servePoint(), serveStream(), analyticUnion(), dmlChurn()}
}

// Workload finds a workload by name.
func Workload(name string) *workloadDef {
	for _, w := range Workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Name and Why expose a workload's declaration.
func (d *workloadDef) Name() string { return d.name }
func (d *workloadDef) Why() string  { return d.why }

// benchmarkFile mirrors BENCHMARK.json at the repository root, the
// contract the benchmark driver reads.
type benchmarkFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []benchmarkWhy   `json:"workloads"`
	EndToEnd   []benchmarkE2E   `json:"end_to_end"`
	PerLayer   []benchmarkLayer `json:"per_layer"`
}

type benchmarkWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// declaredBenchmark renders the declarations of this file in the shape
// of BENCHMARK.json.
func declaredBenchmark() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
	}
	for _, w := range Workloads() {
		f.Workloads = append(f.Workloads, benchmarkWhy{w.name, w.why})
	}
	for _, m := range E2E {
		f.EndToEnd = append(f.EndToEnd, benchmarkE2E{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range Layers {
		f.PerLayer = append(f.PerLayer, benchmarkLayer{m.Name, m.Unit, m.Better})
	}
	return f
}
