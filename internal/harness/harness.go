// Package harness reproduces every table and figure of the paper's
// evaluation (§VI). Each experiment builds the appropriate simulated
// cluster (26-node grid or 10-node TPC-H), generates scaled data,
// executes the paper's statements on the systems under comparison —
// Hive(HDFS), Hive(HBase), DualTable EDIT, DualTable with the cost
// model — and reports simulated cluster seconds, which reproduce the
// paper's *shape*: who wins, by what factor, and where the plan
// crossovers fall.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"dualtable"
	"dualtable/internal/hive"
	"dualtable/internal/sim"
)

// Config tunes experiment scale.
type Config struct {
	// Scale divides the paper's data volumes (default 1/4000). The
	// simulation DataScale is set to its inverse so metered seconds
	// reflect paper-scale volumes.
	Scale float64
	// Parallelism bounds real goroutine use (0 = NumCPU).
	Parallelism int
	// Quick shrinks sweeps for use in tests.
	Quick bool
	// Seed controls data generation.
	Seed int64
}

// DefaultConfig is the dtbench default.
func DefaultConfig() Config {
	return Config{Scale: 1.0 / 4000, Seed: 20150413}
}

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0 / 4000
	}
	if c.Seed == 0 {
		c.Seed = 20150413
	}
	return c
}

// Result is one reproduced table or figure.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Markdown renders the result as a GitHub table.
func (r *Result) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s: %s\n\n", r.ID, r.Title)
	sb.WriteString("| " + strings.Join(r.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat(" --- |", len(r.Header)) + "\n")
	for _, row := range r.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "\n*%s*\n", n)
	}
	sb.WriteString("\n")
	return sb.String()
}

// Experiment is one registered reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Result, error)
}

// registry of all experiments.
var registry []Experiment

func register(exp Experiment) { registry = append(registry, exp) }

// All returns every registered experiment in ID order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get looks up one experiment by ID.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// env is one assembled system under test: the stack dualtable.Open
// builds, and the session every statement of the system runs under
// (plan forcing, k and ratio hints are its settings).
type env struct {
	db   *dualtable.DB
	sess *dualtable.Session
}

// newEnv opens a system on the given cluster parameters with DataScale
// set to the inverse of the actual generation scale.
func newEnv(params sim.CostParams, cfg Config, genScale float64) (*env, error) {
	params.DataScale = 1.0 / genScale
	db, err := dualtable.Open(dualtable.Config{Cluster: params, Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}
	return &env{db: db, sess: db.Session()}, nil
}

// run executes one statement on the system's session.
func (e *env) run(sql string) (*hive.ResultSet, error) { return e.sess.Exec(sql) }

func secs(v float64) string { return fmt.Sprintf("%.1f", v) }

func pct(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }

// ratioPct renders small modification ratios without rounding to 0%.
func ratioPct(v float64) string {
	p := 100 * v
	if p < 1 {
		return fmt.Sprintf("%.2g%%", p)
	}
	return fmt.Sprintf("%.0f%%", p)
}
