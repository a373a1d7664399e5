// Command dtsql is an interactive SQL shell over a DualTable cluster —
// a stand-in for the Hive CLI of the paper's Figure 3. By default it
// runs an in-process simulated cluster; with -connect dt://host:port
// the same shell drives a remote dtserver through the database/sql
// driver instead (one code path, two transports). Either way the shell
// owns one session, so SET statements (e.g. SET dualtable.force.plan =
// EDIT) apply to this shell only. Statements end with ';'. Meta
// commands: \q quits, \plans shows the cost-model decision log, \set
// lists settings, \t toggles timing (\plans and \set are in-process
// only).
package main

import (
	"bufio"
	"database/sql"
	"flag"
	"fmt"
	"os"
	"strings"

	"dualtable"
	_ "dualtable/driver"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// shellResult is the transport-neutral result the REPL renders: the
// in-process path fills it from *dualtable.ResultSet, the remote path
// from database/sql rows.
type shellResult struct {
	columns    []string
	rows       []string // pre-rendered, tab-separated
	affected   int64
	plan       string
	simSeconds float64
	hasTiming  bool
}

// executor runs one ';'-terminated statement buffer.
type executor interface {
	execScript(sqlText string) (*shellResult, error)
	// meta handles a local-only meta command; false means unsupported
	// on this transport.
	meta(cmd string) bool
}

func main() {
	var (
		cluster = flag.String("cluster", "grid", "simulated cluster: grid (26 nodes) or tpch (10 nodes)")
		connect = flag.String("connect", "", "drive a remote dtserver (dt://host:port) instead of an in-process cluster")
		script  = flag.String("f", "", "execute a SQL script file and exit")
		quiet   = flag.Bool("q", false, "suppress the banner")
	)
	flag.Parse()

	var (
		ex     executor
		banner string
	)
	if *connect != "" {
		db, err := sql.Open("dualtable", *connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// One connection, so SET statements stick for the whole shell.
		db.SetMaxOpenConns(1)
		if err := db.Ping(); err != nil {
			fmt.Fprintln(os.Stderr, "dtsql: connect:", err)
			os.Exit(1)
		}
		defer db.Close()
		ex = &remoteExecutor{db: db}
		banner = fmt.Sprintf("DualTable SQL shell — connected to %s", *connect)
	} else {
		cfg := dualtable.DefaultConfig()
		if *cluster == "tpch" {
			cfg.Cluster = sim.TPCHCluster()
		}
		db, err := dualtable.Open(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ex = &localExecutor{sess: db.Session()}
		banner = fmt.Sprintf("DualTable SQL shell — simulated %s cluster", cfg.Cluster.Name)
	}

	if *script != "" {
		data, err := os.ReadFile(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res, err := ex.execScript(string(data))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		printResult(res, true)
		return
	}

	if !*quiet {
		fmt.Println(banner)
		fmt.Println(`Statements end with ';'.  SET key = value configures this session.`)
		fmt.Println(`\q quits, \plans shows plan decisions, \set lists settings, \t toggles timing.`)
	}
	timing := true
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("dualtable> ")
		} else {
			fmt.Print("       ...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case `\q`, "exit", "quit":
			return
		case `\t`:
			timing = !timing
			fmt.Println("timing:", timing)
			prompt()
			continue
		case `\set`, `\plans`:
			if !ex.meta(trimmed) {
				fmt.Printf("%s is not available over -connect (server-side state)\n", trimmed)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if !strings.Contains(line, ";") {
			prompt()
			continue
		}
		sqlText := buf.String()
		buf.Reset()
		res, err := ex.execScript(sqlText)
		if err != nil {
			fmt.Println("ERROR:", err)
		} else {
			printResult(res, timing)
		}
		prompt()
	}
}

// localExecutor runs statements on an in-process session.
type localExecutor struct {
	sess *dualtable.Session
}

func (l *localExecutor) execScript(sqlText string) (*shellResult, error) {
	rs, err := l.sess.ExecScript(sqlText)
	if err != nil {
		return nil, err
	}
	if rs == nil {
		return nil, nil
	}
	res := &shellResult{
		columns:    rs.Columns,
		affected:   rs.Affected,
		plan:       rs.Plan,
		simSeconds: rs.SimSeconds,
		hasTiming:  true,
	}
	for _, r := range rs.Rows {
		res.rows = append(res.rows, r.String())
	}
	return res, nil
}

func (l *localExecutor) meta(cmd string) bool {
	switch cmd {
	case `\set`:
		for _, kv := range l.sess.Settings() {
			fmt.Printf("%s = %s\n", kv[0], kv[1])
		}
	case `\plans`:
		for _, d := range l.sess.PlanLog() {
			fmt.Printf("%-9s ratio=%.4f (%s) Δ=%.2fs  %s\n", d.Plan, d.Ratio, d.RatioSrc, d.CostDelta, d.Statement)
		}
	default:
		return false
	}
	return true
}

// remoteExecutor runs statements on a dtserver through database/sql.
// A buffer whose first statement is a SELECT streams over the wire as
// row batches; everything else (DDL, DML, SET, scripts that start with
// one of those) goes through the exec path, which the server runs as a
// script and answers with the last statement's result.
type remoteExecutor struct {
	db *sql.DB
}

func (r *remoteExecutor) execScript(sqlText string) (*shellResult, error) {
	query := false
	// A buffer that does not lex fails either way, with the server's
	// error.
	_ = sqlparser.StatementHeads(sqlText, func(head string) bool {
		query = head == "SELECT"
		return false
	})
	if query {
		rows, err := r.db.Query(sqlText)
		if err != nil {
			return nil, err
		}
		defer rows.Close()
		cols, err := rows.Columns()
		if err != nil {
			return nil, err
		}
		res := &shellResult{columns: cols}
		vals := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		for rows.Next() {
			if err := rows.Scan(ptrs...); err != nil {
				return nil, err
			}
			res.rows = append(res.rows, renderRow(vals))
		}
		if err := rows.Err(); err != nil {
			return nil, err
		}
		return res, nil
	}
	sr, err := r.db.Exec(sqlText)
	if err != nil {
		return nil, err
	}
	res := &shellResult{}
	if n, err := sr.RowsAffected(); err == nil {
		res.affected = n
	}
	return res, nil
}

func (r *remoteExecutor) meta(string) bool { return false }

func renderRow(vals []any) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case nil:
			parts[i] = "NULL"
		case []byte:
			parts[i] = string(x)
		default:
			parts[i] = fmt.Sprint(x)
		}
	}
	return strings.Join(parts, "\t")
}

func printResult(res *shellResult, timing bool) {
	if res == nil {
		return
	}
	if len(res.columns) > 0 {
		fmt.Println(strings.Join(res.columns, "\t"))
		for _, r := range res.rows {
			fmt.Println(r)
		}
		fmt.Printf("%d row(s)", len(res.rows))
	} else {
		fmt.Printf("OK, %d row(s) affected", res.affected)
	}
	if res.plan != "" {
		fmt.Printf("  [plan: %s]", res.plan)
	}
	if timing && res.hasTiming {
		fmt.Printf("  (%.2f simulated cluster seconds)", res.simSeconds)
	}
	fmt.Println()
}
