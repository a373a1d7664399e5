package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Fingerprint identifies the machine and toolchain a result was taken
// on; results with different fingerprints are not comparable.
type Fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func fingerprint() Fingerprint {
	return Fingerprint{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the commit under test, or "unknown" outside a git
// checkout (the benchmark driver runs from a plain copy).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Result is one run of one workload: the declared metrics of the run's
// mode plus what is needed to compare it with another run.
type Result struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Scale       string      `json:"scale"`
	Trace       bool        `json:"trace"`
	Fingerprint Fingerprint `json:"fingerprint"`
	Commit      string      `json:"commit"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Notes     []string `json:"notes,omitempty"`

	Metrics map[string]Metric `json:"metrics"`
	// Samples is the sample count behind each metric.
	Samples map[string]int `json:"samples"`
	// Spread holds first quartile, median and third quartile of the
	// per-segment values of a metric that is a median of segments.
	Spread map[string][3]float64 `json:"spread,omitempty"`
	// Classes details every statement class, the slots' and the rest.
	Classes  map[string]ClassStats `json:"classes,omitempty"`
	OpCounts map[string]int        `json:"op_counts,omitempty"`
	// Digests are the result digests of the analytic classes.
	Digests map[string]string `json:"digests,omitempty"`
}

func newResult(def *workloadDef, seed int64, seconds float64, scale Scale, trace bool) *Result {
	return &Result{
		Workload: def.name, Seed: seed, Seconds: seconds, Scale: scale.String(), Trace: trace,
		Fingerprint: fingerprint(), Commit: "unknown",
		Metrics: map[string]Metric{}, Samples: map[string]int{}, Spread: map[string][3]float64{},
	}
}

// set stores a declared metric; the unit comes from the declaration so
// the two cannot drift.
func (r *Result) set(name string, v float64) {
	r.Metrics[name] = Metric{Value: v, Unit: unitOf(name)}
}

// setSpread stores the median of per-segment values and their
// quartiles.
func (r *Result) setSpread(name string, segs []float64) {
	q1, q2, q3 := quartiles(segs)
	r.set(name, median(segs))
	r.Spread[name] = [3]float64{q1, q2, q3}
}

// ContractLine is the last line of standard output the benchmark
// driver reads.
func (r *Result) ContractLine() string {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf value can fail here; report it as a wrong run.
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, max(r.Attempted, 1), r.Failed)
	}
	return string(b)
}

// finite reports the first metric that is NaN or infinite.
func (r *Result) finite() error {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

// Print writes every metric by name with unit, sample count and bound.
func (r *Result) Print(w io.Writer) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  scale=%s  %s  attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Scale, mode, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("  %-36s %14.4f %-7s n=%-6d", n, m.Value, m.Unit, r.Samples[n])
		if b, ok := boundOf(n); ok {
			line += fmt.Sprintf(" bound=%.0f%%", b*100)
		}
		if sp, ok := r.Spread[n]; ok && sp[1] != 0 {
			line += fmt.Sprintf(" segment-iqr=%.1f%%", (sp[2]-sp[0])/sp[1]*100)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	cls := make([]string, 0, len(r.Classes))
	for n := range r.Classes {
		cls = append(cls, n)
	}
	sort.Strings(cls)
	for _, n := range cls {
		c := r.Classes[n]
		fmt.Fprintf(w, "  class %-20s n=%-6d p50=%.3fms p95=%.3fms p99=%.3fms\n", n, c.N, c.P50Ms, c.P95Ms, c.P99Ms)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  ERROR %s\n", e)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note  %s\n", n)
	}
}

// resultFile names a result inside an output directory.
func resultFile(dir, workload string, trace bool) string {
	kind := "result"
	if trace {
		kind = "layers"
	}
	return filepath.Join(dir, kind+"-"+workload+".json")
}

// Save writes the result into dir, stamped with the commit under test.
func (r *Result) Save(dir string) error {
	r.Commit = gitCommit()
	return writeJSON(resultFile(dir, r.Workload, r.Trace), r)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
