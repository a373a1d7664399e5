// Package hive implements the query engine of the reproduction: a
// Hive-like SQL layer that plans HiveQL statements into MapReduce jobs
// over pluggable storage handlers (ORC-on-DFS, the key-value store,
// and — registered by the core package — DualTable). It mirrors the
// architecture of the paper's Figure 3: parser → cost-aware DML
// routing → MapReduce execution over HDFS/HBase-like substrates.
package hive

import (
	"fmt"
	"path"
	"strings"
	"sync"

	"dualtable/internal/datum"
	"dualtable/internal/dfs"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/orcfile"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// ScanOptions asks a handler for splits with projection and predicate
// pushdown.
type ScanOptions struct {
	// Projection lists the table-schema column indexes the query
	// needs (nil = all). Handlers may return full rows regardless;
	// projection is an optimization.
	Projection []int
	// SArg prunes ORC stripes by statistics.
	SArg *orcfile.SearchArg
	// AsOfEpoch, when non-nil, asks a snapshot-capable handler for a
	// time-travel scan pinned at that historical manifest epoch
	// (SELECT ... AS OF EPOCH n / SET read.epoch). Only DualTable keeps
	// an epoch history; the planner never sets it for other storage.
	AsOfEpoch *uint64
}

// Committer finalizes or aborts a bulk write.
type Committer interface {
	Commit() error
	Abort() error
}

// StorageHandler implements one STORED AS format.
type StorageHandler interface {
	// Create provisions physical storage for a new table.
	Create(desc *metastore.TableDesc) error
	// Drop removes the table's physical storage.
	Drop(desc *metastore.TableDesc) error
	// Splits returns the table's input splits for a scan and a release
	// callback the caller runs exactly once when the job consuming the
	// splits has finished (or failed). Snapshot storage (DualTable's
	// epoch manifests) pins the scanned files against concurrent
	// COMPACT/OVERWRITE until then; for other storage release is a
	// no-op and a concurrent rewrite may invalidate the file set
	// mid-scan.
	Splits(desc *metastore.TableDesc, opts ScanOptions) (splits []mapred.InputSplit, release func(), err error)
	// Append returns an output factory that adds rows to the table.
	Append(desc *metastore.TableDesc) (mapred.OutputFactory, Committer, error)
	// Overwrite returns an output factory that atomically replaces
	// the table's contents on Commit.
	Overwrite(desc *metastore.TableDesc) (mapred.OutputFactory, Committer, error)
	// RowCount estimates the current number of rows (statistics).
	RowCount(desc *metastore.TableDesc) (int64, error)
	// DataSize estimates the stored byte size (statistics).
	DataSize(desc *metastore.TableDesc) (int64, error)
}

// noRelease is the Splits release callback of handlers that pin
// nothing.
func noRelease() {}

// DMLHandler is a StorageHandler with native UPDATE/DELETE support
// (the key-value handler, DualTable and ACID). Handlers without it get
// the INSERT OVERWRITE rewrite, like plain Hive. The ExecContext carries
// the caller's cancellation context and session settings (force plan,
// ratio hints); the string result names the physical plan that ran
// (e.g. "EDIT", "OVERWRITE") so experiments can verify cost-model
// decisions. A native plan is Engine.RunDMLScan over the handler's
// splits with the handler's DMLSink: the handler owns the writes, the
// scan owns WHERE and SET evaluation — and the row and value slice it
// passes a sink stay its scratch, valid only during that call.
type DMLHandler interface {
	ExecUpdate(ec *ExecContext, e *Engine, desc *metastore.TableDesc, stmt *sqlparser.UpdateStmt, l *sim.Ledger) (int64, string, error)
	ExecDelete(ec *ExecContext, e *Engine, desc *metastore.TableDesc, stmt *sqlparser.DeleteStmt, l *sim.Ledger) (int64, string, error)
}

// Compactor is a StorageHandler supporting the COMPACT statement. The
// execution context carries the caller's cancellation context: a
// canceled COMPACT aborts between MapReduce records, releases the
// table lock and leaves the table untouched (staging is discarded).
type Compactor interface {
	Compact(ec *ExecContext, e *Engine, desc *metastore.TableDesc, l *sim.Ledger) error
}

// Engine executes SQL statements.
type Engine struct {
	FS        *dfs.FileSystem
	KV        *kvstore.Cluster
	MS        *metastore.Metastore
	MR        *mapred.Cluster
	Warehouse string

	handlers map[metastore.StorageKind]StorageHandler
	plans    *planCache

	// ddlMu guards ddlLocks, the per-table-name DDL mutexes. CREATE
	// and DROP each pair a metastore namespace change with a handler
	// storage change; serializing the pair per name keeps a CREATE
	// racing into a DROP's tombstone window from having its fresh
	// storage torn down by the in-flight DROP. Entries are
	// reference-counted and removed when idle, so churning unique temp
	// table names does not grow the map unboundedly.
	ddlMu    sync.Mutex
	ddlLocks map[string]*ddlEntry
}

// ddlEntry is one name's DDL mutex plus its holder/waiter count.
type ddlEntry struct {
	mu   sync.Mutex
	refs int
}

// ddlLock serializes DDL on one table name; the returned func unlocks.
func (e *Engine) ddlLock(name string) func() {
	key := strings.ToLower(name)
	e.ddlMu.Lock()
	if e.ddlLocks == nil {
		e.ddlLocks = map[string]*ddlEntry{}
	}
	ent, ok := e.ddlLocks[key]
	if !ok {
		ent = &ddlEntry{}
		e.ddlLocks[key] = ent
	}
	ent.refs++
	e.ddlMu.Unlock()
	ent.mu.Lock()
	return func() {
		ent.mu.Unlock()
		e.ddlMu.Lock()
		ent.refs--
		if ent.refs == 0 {
			delete(e.ddlLocks, key)
		}
		e.ddlMu.Unlock()
	}
}

// Config assembles an Engine.
type Config struct {
	FS        *dfs.FileSystem
	KV        *kvstore.Cluster
	MR        *mapred.Cluster
	Warehouse string // DFS directory for managed tables (default /warehouse)
}

// NewEngine builds an engine with the ORC, TEXT and KV handlers
// registered. The DualTable handler is registered by the core package
// via RegisterHandler.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.FS == nil || cfg.KV == nil || cfg.MR == nil {
		return nil, fmt.Errorf("hive: engine requires FS, KV and MR")
	}
	if cfg.Warehouse == "" {
		cfg.Warehouse = "/warehouse"
	}
	if err := cfg.FS.MkdirAll(cfg.Warehouse); err != nil {
		return nil, err
	}
	e := &Engine{
		FS:        cfg.FS,
		KV:        cfg.KV,
		MS:        metastore.New(),
		MR:        cfg.MR,
		Warehouse: cfg.Warehouse,
		handlers:  map[metastore.StorageKind]StorageHandler{},
		plans:     newPlanCache(planCacheCap),
	}
	e.handlers[metastore.StorageORC] = &orcHandler{e: e}
	e.handlers[metastore.StorageText] = &textHandler{e: e}
	e.handlers[metastore.StorageKV] = &kvHandler{e: e}
	return e, nil
}

// RegisterHandler installs a storage handler (used by the DualTable
// core to plug in StorageDual).
func (e *Engine) RegisterHandler(kind metastore.StorageKind, h StorageHandler) {
	e.handlers[kind] = h
}

// Handler returns the handler for a storage kind.
func (e *Engine) Handler(kind metastore.StorageKind) (StorageHandler, error) {
	h, ok := e.handlers[kind]
	if !ok {
		return nil, fmt.Errorf("hive: no handler for storage %v", kind)
	}
	return h, nil
}

// ResultSet is the outcome of a statement.
type ResultSet struct {
	// Columns names the output columns (empty for DML).
	Columns []string
	// Rows holds query output (nil for DML).
	Rows []datum.Row
	// Affected is the DML row count.
	Affected int64
	// SimSeconds is the simulated cluster time the statement took.
	SimSeconds float64
	// Counts is the ledger SimSeconds is priced from, jobs included.
	Counts sim.Counts
	// Plan describes the physical plan that ran ("OVERWRITE"/"EDIT"
	// for DualTable DML, job summaries for queries).
	Plan string
}

// Execute parses and runs one SQL statement with no session and a
// background context.
func (e *Engine) Execute(sql string) (*ResultSet, error) {
	return e.ExecuteCtx(nil, sql)
}

// ExecuteCtx parses (through the plan cache, keyed by exact text) and
// runs one SQL statement under an execution context.
func (e *Engine) ExecuteCtx(ec *ExecContext, sql string) (*ResultSet, error) {
	p, err := e.PrepareCtx(ec, sql)
	if err != nil {
		return nil, err
	}
	return e.ExecuteStmtCtx(ec, p.Stmt)
}

// ExecuteScriptCtx runs a semicolon-separated script under an
// execution context, returning the last statement's result.
func (e *Engine) ExecuteScriptCtx(ec *ExecContext, sql string) (*ResultSet, error) {
	stmts, err := sqlparser.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	var last *ResultSet
	for _, s := range stmts {
		last, err = e.ExecuteStmtCtx(ec, s)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// ExecuteStmtCtx runs one parsed statement under an execution context.
func (e *Engine) ExecuteStmtCtx(ec *ExecContext, stmt sqlparser.Statement) (*ResultSet, error) {
	if err := ec.Err(); err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		return e.runSelect(ec, s, nil)
	case *sqlparser.InsertStmt:
		return e.execInsert(ec, s)
	case *sqlparser.UpdateStmt:
		return e.execUpdate(ec, s)
	case *sqlparser.DeleteStmt:
		return e.execDelete(ec, s)
	case *sqlparser.CreateTableStmt:
		return e.execCreate(s)
	case *sqlparser.DropTableStmt:
		return e.execDrop(s)
	case *sqlparser.LoadStmt:
		return e.execLoad(ec, s)
	case *sqlparser.CompactStmt:
		return e.execCompact(ec, s)
	case *sqlparser.SetStmt:
		return e.execSet(ec, s)
	case *sqlparser.ShowTablesStmt:
		rs := &ResultSet{Columns: []string{"tab_name"}}
		for _, n := range e.MS.List() {
			rs.Rows = append(rs.Rows, datum.Row{datum.String_(n)})
		}
		return rs, nil
	case *sqlparser.DescribeStmt:
		desc, err := e.MS.Get(s.Table)
		if err != nil {
			return nil, err
		}
		rs := &ResultSet{Columns: []string{"col_name", "data_type"}}
		for _, c := range desc.Schema {
			rs.Rows = append(rs.Rows, datum.Row{datum.String_(c.Name), datum.String_(c.Kind.String())})
		}
		rs.Rows = append(rs.Rows, datum.Row{datum.String_("# storage"), datum.String_(desc.Storage.String())})
		return rs, nil
	case *sqlparser.ExplainStmt:
		return e.explain(s.Stmt)
	default:
		return nil, fmt.Errorf("hive: unsupported statement %T", stmt)
	}
}

// execSet applies SET key = value to the session, or lists the
// session's settings for a bare SET.
func (e *Engine) execSet(ec *ExecContext, s *sqlparser.SetStmt) (*ResultSet, error) {
	if ec == nil || ec.Vars == nil {
		return nil, fmt.Errorf("hive: SET requires a session")
	}
	if s.Key == "" {
		rs := &ResultSet{Columns: []string{"key", "value"}}
		for _, kv := range ec.Vars.All() {
			rs.Rows = append(rs.Rows, datum.Row{datum.String_(kv[0]), datum.String_(kv[1])})
		}
		return rs, nil
	}
	ec.Vars.Set(s.Key, s.Value)
	return &ResultSet{Plan: "SET"}, nil
}

func (e *Engine) execCreate(s *sqlparser.CreateTableStmt) (*ResultSet, error) {
	defer e.ddlLock(s.Name)()
	if e.MS.Exists(s.Name) {
		if s.IfNotExists {
			return &ResultSet{}, nil
		}
		return nil, fmt.Errorf("%w: %s", metastore.ErrTableExists, s.Name)
	}
	kind, err := metastore.KindFromName(s.StoredAs)
	if err != nil {
		return nil, err
	}
	schema := make(datum.Schema, len(s.Columns))
	for i, c := range s.Columns {
		k, err := datum.KindFromSQL(c.Type)
		if err != nil {
			return nil, err
		}
		schema[i] = datum.Column{Name: c.Name, Kind: k}
	}
	desc := &metastore.TableDesc{
		Name:       s.Name,
		Schema:     schema,
		Storage:    kind,
		Location:   path.Join(e.Warehouse, strings.ToLower(s.Name)),
		Properties: map[string]string{},
	}
	h, err := e.Handler(kind)
	if err != nil {
		return nil, err
	}
	if err := h.Create(desc); err != nil {
		return nil, err
	}
	if err := e.MS.Create(desc); err != nil {
		return nil, err
	}
	return &ResultSet{}, nil
}

func (e *Engine) execDrop(s *sqlparser.DropTableStmt) (*ResultSet, error) {
	defer e.ddlLock(s.Name)()
	desc, err := e.MS.Get(s.Name)
	if err != nil {
		if s.IfExists {
			return &ResultSet{}, nil
		}
		return nil, err
	}
	h, err := e.Handler(desc.Storage)
	if err != nil {
		return nil, err
	}
	// Tombstone first: the namespace disappears from the metastore
	// before any physical teardown, so new scans and writes see
	// ErrTableNotFound immediately even while a pin-aware handler is
	// still waiting on in-flight writers or deferring reclamation to
	// the last pinned snapshot.
	if err := e.MS.Drop(s.Name); err != nil {
		return nil, err
	}
	if err := h.Drop(desc); err != nil {
		// Restore the descriptor so the failed DROP stays retryable
		// (non-pin-aware handlers can fail mid-teardown; without the
		// rollback their storage would be unreachable through SQL).
		// The per-name DDL lock guarantees nobody took the name in
		// between.
		if cerr := e.MS.Create(desc); cerr != nil {
			return nil, fmt.Errorf("%w (and restoring the dropped descriptor failed: %v)", err, cerr)
		}
		return nil, err
	}
	return &ResultSet{}, nil
}

func (e *Engine) execCompact(ec *ExecContext, s *sqlparser.CompactStmt) (*ResultSet, error) {
	desc, err := e.MS.Get(s.Table)
	if err != nil {
		return nil, err
	}
	h, err := e.Handler(desc.Storage)
	if err != nil {
		return nil, err
	}
	c, ok := h.(Compactor)
	if !ok {
		return nil, fmt.Errorf("hive: table %s (%v) does not support COMPACT", s.Table, desc.Storage)
	}
	ledger := sim.NewLedger(&e.MR.Params)
	if err := c.Compact(ec, e, desc, ledger); err != nil {
		return nil, err
	}
	return &ResultSet{SimSeconds: ledger.Seconds(), Counts: ledger.Counts(), Plan: "COMPACT"}, nil
}

// execLoad parses a delimited text file from the DFS and appends its
// rows to the table through the storage handler.
func (e *Engine) execLoad(ec *ExecContext, s *sqlparser.LoadStmt) (*ResultSet, error) {
	desc, err := e.MS.Get(s.Table)
	if err != nil {
		return nil, err
	}
	ledger := sim.NewLedger(&e.MR.Params)
	n, err := e.writeTable(desc, s.Overwrite, func(of mapred.OutputFactory) (int64, error) {
		data, err := e.FS.ReadFile(s.Path)
		if err != nil {
			return 0, fmt.Errorf("hive: LOAD: %w", err)
		}
		rows, err := parseDelimited(string(data), desc.Schema)
		if err != nil {
			return 0, err
		}
		return int64(len(rows)), e.writeRows(ec, rows, int64(len(data)), of, ledger)
	})
	if err != nil {
		return nil, err
	}
	return &ResultSet{Affected: n, SimSeconds: ledger.Seconds(), Counts: ledger.Counts(), Plan: "LOAD"}, nil
}

// fieldDelim separates the fields of a text table's lines and of LOAD
// DATA sources (the delimiter dbgen writes).
const fieldDelim = "|"

// parseDelimited parses fieldDelim-separated lines into typed rows.
func parseDelimited(data string, schema datum.Schema) ([]datum.Row, error) {
	var rows []datum.Row
	for lineNo, line := range strings.Split(data, "\n") {
		if line == "" {
			continue
		}
		fields := strings.Split(line, fieldDelim)
		// Tolerate a trailing delimiter (dbgen emits one).
		if len(fields) == len(schema)+1 && fields[len(fields)-1] == "" {
			fields = fields[:len(schema)]
		}
		if len(fields) != len(schema) {
			return nil, fmt.Errorf("hive: line %d has %d fields, schema has %d", lineNo+1, len(fields), len(schema))
		}
		row := make(datum.Row, len(schema))
		for i, f := range fields {
			d, err := datum.Parse(f, schema[i].Kind)
			if err != nil {
				return nil, fmt.Errorf("hive: line %d: %w", lineNo+1, err)
			}
			row[i] = d
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// BulkLoad appends pre-built rows to a table through its storage
// handler — the fast path workload generators use instead of huge
// INSERT ... VALUES statements. Rows are coerced to the table schema.
func (e *Engine) BulkLoad(table string, rows []datum.Row) (*ResultSet, error) {
	desc, err := e.MS.Get(table)
	if err != nil {
		return nil, err
	}
	ledger := sim.NewLedger(&e.MR.Params)
	n, err := e.writeTable(desc, false, func(of mapred.OutputFactory) (int64, error) {
		for _, r := range rows {
			if err := desc.Schema.CoerceRow(r); err != nil {
				return 0, fmt.Errorf("hive: bulk load %s: %w", table, err)
			}
		}
		return int64(len(rows)), e.writeRows(nil, rows, 0, of, ledger)
	})
	if err != nil {
		return nil, err
	}
	return &ResultSet{Affected: n, SimSeconds: ledger.Seconds(), Counts: ledger.Counts(), Plan: "BULKLOAD"}, nil
}

func (e *Engine) explain(stmt sqlparser.Statement) (*ResultSet, error) {
	rs := &ResultSet{Columns: []string{"plan"}}
	add := func(lines ...string) {
		for _, l := range lines {
			rs.Rows = append(rs.Rows, datum.Row{datum.String_(l)})
		}
	}
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		add("SELECT (MapReduce)", "  "+s.String())
		if s.From == nil {
			break
		}
		// What the planner does with FROM and WHERE: per input the
		// scanned columns, the conjuncts pushed to it and their
		// SearchArg; per join its keys and residual ON; and the WHERE
		// left to evaluate over the result.
		from, above, err := e.planFrom(s)
		if err != nil {
			return nil, err
		}
		from.describe(add, "  ")
		if from.join != nil {
			add("  residual WHERE " + exprList(sqlparser.SplitConjuncts(above.Where)))
		}
	case *sqlparser.UpdateStmt:
		desc, err := e.MS.Get(s.Table)
		if err != nil {
			return nil, err
		}
		if desc.Storage == metastore.StorageORC || desc.Storage == metastore.StorageText {
			ins, err := RewriteUpdateToOverwrite(s, desc)
			if err != nil {
				return nil, err
			}
			add("UPDATE via INSERT OVERWRITE rewrite:", "  "+ins.String())
		} else {
			add(fmt.Sprintf("UPDATE via %v handler (cost-model plan selection at run time)", desc.Storage))
		}
	case *sqlparser.DeleteStmt:
		desc, err := e.MS.Get(s.Table)
		if err != nil {
			return nil, err
		}
		if desc.Storage == metastore.StorageORC || desc.Storage == metastore.StorageText {
			ins, err := RewriteDeleteToOverwrite(s, desc)
			if err != nil {
				return nil, err
			}
			add("DELETE via INSERT OVERWRITE rewrite:", "  "+ins.String())
		} else {
			add(fmt.Sprintf("DELETE via %v handler (cost-model plan selection at run time)", desc.Storage))
		}
	default:
		add(fmt.Sprintf("%T", stmt), "  "+stmt.String())
	}
	return rs, nil
}
