package hive

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dualtable/internal/datum"
	"dualtable/internal/freelist"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/orcfile"
	"dualtable/internal/sqlparser"
)

// relation is a planned FROM source: a resolution scope plus the
// input splits that produce its rows. Base-table scans carry their
// handler's release callback (it unpins a DualTable snapshot); Release
// must run exactly once after the job consuming the splits finishes
// (idempotent, nil-safe).
type relation struct {
	sc     *scope
	names  []string // output names aligned with sc.cols
	splits []mapred.InputSplit

	release     func()
	releaseOnce sync.Once
}

// Release runs the relation's release callback, if any. Safe to call
// multiple times and on relations without one.
func (r *relation) Release() {
	if r == nil || r.release == nil {
		return
	}
	r.releaseOnce.Do(r.release)
}

func inferKinds(rs *ResultSet) []datum.Kind {
	kinds := make([]datum.Kind, len(rs.Columns))
	for _, r := range rs.Rows {
		done := true
		for i := range kinds {
			if kinds[i] == datum.KindNull {
				if !r[i].IsNull() {
					kinds[i] = r[i].K
				} else {
					done = false
				}
			}
		}
		if done {
			break
		}
	}
	return kinds
}

// materialized is the relation over rows an earlier job produced (a
// derived table, a join): chunked into in-memory splits that charge
// their encoded size as simulated intermediate I/O on open.
func materialized(sc *scope, names []string, rows []datum.Row) *relation {
	const chunk = 100000
	var splits []mapred.InputSplit
	for off := 0; off < len(rows); off += chunk {
		end := min(off+chunk, len(rows))
		var size int64
		for _, r := range rows[off:end] {
			size += int64(datum.RowEncodedSize(r))
		}
		splits = append(splits, &mapred.SliceSplit{Rows: rows[off:end], SimSize: size})
	}
	if len(splits) == 0 {
		splits = []mapred.InputSplit{&mapred.SliceSplit{}}
	}
	return &relation{sc: sc, names: names, splits: splits}
}

// buildTableScan opens a planned base-table scan: projection and
// predicate pushdown as push decided them (the conjuncts that reached
// the table make its SearchArg), plus time-travel resolution — an AS OF
// EPOCH clause on the table reference or the session's read.epoch
// setting pins the scan at a historical manifest epoch.
func (e *Engine) buildTableScan(ec *ExecContext, n *fromNode) (*relation, error) {
	t, desc := n.table, n.desc
	h, err := e.Handler(desc.Storage)
	if err != nil {
		return nil, err
	}
	opts := ScanOptions{Projection: n.proj}
	opts.AsOfEpoch, err = resolveReadEpoch(ec, t)
	if err != nil {
		return nil, err
	}
	opts.SArg = extractSArg(n.where, n.sc, desc.Schema)

	// Only DualTable keeps an epoch history. An explicit AS OF clause
	// on any other table is an error; the session-wide read.epoch pin
	// is simply ignored for it (current is its only epoch), so
	// mixed-storage queries — a DUALTABLE joined to an ORC dimension
	// table — still run under a session pin.
	if desc.Storage != metastore.StorageDual {
		if t.AsOf != nil {
			return nil, fmt.Errorf("hive: table %s (%v) does not support time travel (AS OF EPOCH)",
				t.Name, desc.Storage)
		}
		opts.AsOfEpoch = nil
	}
	// The release callback travels on the relation and runs when the
	// consuming job is done.
	splits, release, err := h.Splits(desc, opts)
	if err != nil {
		return nil, err
	}
	return &relation{sc: n.sc, names: n.names, splits: splits, release: release}, nil
}

// resolveReadEpoch picks the epoch a table scan reads at: the table
// reference's AS OF EPOCH clause when present (a bound literal by
// execution time), else the session's read.epoch setting, else nil
// (current epoch).
func resolveReadEpoch(ec *ExecContext, t *sqlparser.TableName) (*uint64, error) {
	if t.AsOf != nil {
		lit, ok := t.AsOf.(*sqlparser.Literal)
		if !ok {
			return nil, fmt.Errorf("sql: AS OF EPOCH parameter is not bound")
		}
		if lit.Value.K != datum.KindInt || lit.Value.I < 0 {
			return nil, fmt.Errorf("sql: AS OF EPOCH must be a non-negative integer, got %s",
				lit.Value.SQLLiteral())
		}
		ep := uint64(lit.Value.I)
		return &ep, nil
	}
	v, ok := ec.Var(VarReadEpoch)
	if !ok {
		return nil, nil
	}
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "", "current", "latest":
		return nil, nil
	}
	ep, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("hive: bad %s value %q (want a non-negative integer, \"\" or \"current\")",
			VarReadEpoch, v)
	}
	return &ep, nil
}

// rejectDMLUnderReadEpoch refuses UPDATE/DELETE while the session pins
// historical reads: their OVERWRITE rewrites scan the target table,
// and a pinned epoch would silently rewrite the table from stale data.
func rejectDMLUnderReadEpoch(ec *ExecContext, stmt string) error {
	v, ok := ec.Var(VarReadEpoch)
	if !ok {
		return nil
	}
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "", "current", "latest":
		return nil
	}
	return fmt.Errorf("hive: %s cannot run while %s = %q pins historical reads (SET %s = '' first)",
		stmt, VarReadEpoch, v, VarReadEpoch)
}

// ExtractSearchArg converts pushable conjuncts (col <op> literal) of
// a predicate into an ORC search argument against the given schema,
// resolving columns under the given qualifier (alias or table name).
// Returns nil when nothing is pushable. Exported for the DualTable
// core's statistics-based selectivity estimation.
func ExtractSearchArg(where sqlparser.Expr, qualifier string, schema datum.Schema) *orcfile.SearchArg {
	return extractSArg(sqlparser.SplitConjuncts(where), newScope(qualifier, schema), schema)
}

// extractSArg converts the pushable ones (col <op> literal) of a scan's
// conjuncts into an ORC search argument.
func extractSArg(conjuncts []sqlparser.Expr, sc *scope, schema datum.Schema) *orcfile.SearchArg {
	var preds []orcfile.Predicate
	for _, conj := range conjuncts {
		bin, ok := conj.(*sqlparser.BinaryExpr)
		if !ok {
			continue
		}
		var op orcfile.CmpOp
		var flip orcfile.CmpOp
		switch bin.Op {
		case "=":
			op, flip = orcfile.OpEQ, orcfile.OpEQ
		case "!=":
			op, flip = orcfile.OpNE, orcfile.OpNE
		case "<":
			op, flip = orcfile.OpLT, orcfile.OpGT
		case "<=":
			op, flip = orcfile.OpLE, orcfile.OpGE
		case ">":
			op, flip = orcfile.OpGT, orcfile.OpLT
		case ">=":
			op, flip = orcfile.OpGE, orcfile.OpLE
		default:
			continue
		}
		ref, refOK := bin.L.(*sqlparser.ColumnRef)
		lit, litOK := bin.R.(*sqlparser.Literal)
		if !refOK || !litOK {
			// literal <op> col
			if ref2, ok2 := bin.R.(*sqlparser.ColumnRef); ok2 {
				if lit2, ok3 := bin.L.(*sqlparser.Literal); ok3 {
					ref, lit, refOK, litOK = ref2, lit2, true, true
					op = flip
				}
			}
		}
		if !refOK || !litOK || lit.Value.IsNull() {
			continue
		}
		idx, err := sc.resolve(ref)
		if err != nil || idx >= len(schema) {
			continue
		}
		preds = append(preds, orcfile.Predicate{Column: idx, Op: op, Value: lit.Value})
	}
	if len(preds) == 0 {
		return nil
	}
	return &orcfile.SearchArg{Predicates: preds}
}

// selectExprs lists the expressions of a SELECT outside its FROM clause.
func selectExprs(sel *sqlparser.SelectStmt) []sqlparser.Expr {
	exprs := make([]sqlparser.Expr, 0, len(sel.Items)+len(sel.GroupBy)+len(sel.OrderBy)+2)
	for _, it := range sel.Items {
		exprs = append(exprs, it.Expr)
	}
	exprs = append(exprs, sel.Where)
	exprs = append(exprs, sel.GroupBy...)
	exprs = append(exprs, sel.Having)
	for _, o := range sel.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	return exprs
}

// referencedColumns lists, ascending, the columns of the scope the
// expressions mention: every column a reference could name, so what
// resolves against the scope resolves the same — unknown, unique or
// ambiguous — against those columns alone. Nil means all columns (a *).
func referencedColumns(exprs []sqlparser.Expr, sc *scope) []int {
	needed := map[int]bool{}
	sawStar := false
	mark := func(ref *sqlparser.ColumnRef) {
		for _, idx := range sc.matches(ref) {
			needed[idx] = true
		}
	}
	for _, x := range exprs {
		sqlparser.WalkExpr(x, func(n sqlparser.Expr) bool {
			switch v := n.(type) {
			case *sqlparser.Star:
				sawStar = true
			case *sqlparser.ColumnRef:
				mark(v)
			case *sqlparser.SubqueryExpr:
				// Correlated refs inside subqueries reference the
				// outer table too; resolve conservatively.
				sqlparser.WalkExpr(v.Select.Where, func(m sqlparser.Expr) bool {
					if ref, ok := m.(*sqlparser.ColumnRef); ok {
						mark(ref)
					}
					return true
				})
				return false
			}
			return true
		})
	}
	if sawStar {
		return nil // all columns
	}
	cols := make([]int, 0, len(needed))
	for i := range needed {
		cols = append(cols, i)
	}
	sort.Ints(cols)
	return cols
}

// scanQuery is what one scan plan evaluates per input row, as
// expressions over one scope: WHERE, the select list, and the ORDER BY
// keys it appends as hidden columns.
type scanQuery struct {
	where sqlparser.Expr
	items []sqlparser.Expr
	order []orderKey
}

// orderKey is one ORDER BY key: the value of select item `item` when
// the key names an output column, else expr (item < 0).
type orderKey struct {
	item int
	expr sqlparser.Expr
}

// compileOrderKey resolves an ORDER BY expression against the output
// names first: a bare column ref matching one refers to that item, even
// when the input scope has a column of the same name.
func compileOrderKey(expr sqlparser.Expr, names []string) orderKey {
	if ref, ok := expr.(*sqlparser.ColumnRef); ok && ref.Table == "" {
		for i, n := range names {
			if strings.EqualFold(n, ref.Name) {
				return orderKey{item: i}
			}
		}
	}
	return orderKey{item: -1, expr: expr}
}

// simpleScanPlan is a compiled scanQuery: the filter → project stage
// every SELECT runs through simpleScanMapper — as the map side of the
// plain SELECT's job (collected or streamed), and in-process over an
// aggregation's reduced rows.
type simpleScanPlan struct {
	filter scanFilter // unused template, copied per mapper
	projs  []vecExpr
	orders []vecExpr
	topN   int64 // per-task top-N bound on the order keys, -1 = off
	desc   []bool
}

// planSimpleScan compiles WHERE, the select list and the hidden ORDER
// BY key columns against the scope. An order key that names a select
// item runs that item's program (the alias names no input column).
func (e *Engine) planSimpleScan(ec *ExecContext, q scanQuery, sc *scope) (*simpleScanPlan, error) {
	filter, err := e.newScanFilter(ec, q.where, sc)
	if err != nil {
		return nil, err
	}
	projs, err := e.compileVecs(ec, q.items, sc)
	if err != nil {
		return nil, err
	}
	orderExprs := make([]sqlparser.Expr, len(q.order))
	for i, k := range q.order {
		if k.item < 0 {
			orderExprs[i] = k.expr
		}
	}
	orders, err := e.compileVecs(ec, orderExprs, sc)
	if err != nil {
		return nil, err
	}
	for i, k := range q.order {
		if k.item >= 0 {
			orders[i] = projs[k.item]
		}
	}
	return &simpleScanPlan{filter: filter, projs: projs, orders: orders, topN: -1}, nil
}

// newMapper builds one task's mapper. Each mapper owns its filter and
// vecExpr slice: compiled programs are shared, but per-batch program
// state is not.
func (p *simpleScanPlan) newMapper() mapred.Mapper {
	m := &simpleScanMapper{filter: p.filter, exprs: slices.Concat(p.projs, p.orders)}
	if p.topN >= 0 {
		m.top = &topHeap{limit: p.topN, keyAt: len(p.projs), desc: p.desc}
	}
	return m
}

// run pushes rows through one mapper in-process, as column batches no
// longer than a reader's, and returns what it emits.
func (p *simpleScanPlan) run(rows []datum.Row) ([]datum.Row, error) {
	var out []datum.Row
	emit := func(_ []byte, row datum.Row) error {
		out = append(out, row)
		return nil
	}
	m := p.newMapper().(*simpleScanMapper)
	defer m.Close()
	m.emitBatch = func(b *datum.Batch) (bool, error) {
		out = b.AppendRows(out)
		return false, nil
	}
	var in datum.Batch
	for len(rows) > 0 {
		n := min(len(rows), orcfile.DefaultBatchRows)
		in.SetRows(rows[:n], len(rows[0]))
		if err := m.MapBatch(&mapred.RecordBatch{Len: n, Cols: in.Cols}, emit); err != nil {
			return nil, err
		}
		rows = rows[n:]
	}
	if err := m.Flush(emit); err != nil {
		return nil, err
	}
	return out, nil
}

// resultBatches lends the batches a scan's result travels in. A mapper
// borrows one per batch its sink keeps; whoever consumes the batch — the
// Rows a streamed SELECT returns — hands it back on moving past it.
var resultBatches = freelist.New[datum.Batch]()

// simpleScanMapper is the filter+project mapper: the filter step
// selects a batch's surviving rows and the projections of those rows
// become one result batch, handed whole to the task's sink (the visible
// columns first, then the hidden ORDER BY keys). The result batch owns
// its storage: the reader refills b.Cols on its next NextBatch, so each
// expression's value is compacted by the selection into the result —
// copied, never aliased. For ORDER BY ... LIMIT n queries the
// task offers the batch to a bounded top-N heap instead and emits at
// most n rows at Flush, in arrival order: only a task's n best rows can
// survive the global stable sort + truncate, so the final result is
// unchanged while the job stops materializing full result sets.
type simpleScanMapper struct {
	filter scanFilter
	exprs  []vecExpr // the select list, then the order keys
	top    *topHeap  // nil unless ORDER BY ... LIMIT

	emitBatch mapred.BatchEmitter
	out       *datum.Batch // borrowed; the sink's once it keeps it
}

func (m *simpleScanMapper) SetBatchEmitter(emit mapred.BatchEmitter) { m.emitBatch = emit }

func (m *simpleScanMapper) Flush(emit mapred.Emitter) error {
	if m.top == nil {
		return nil
	}
	for _, row := range m.top.survivors() {
		if err := emit(nil, row); err != nil {
			return err
		}
	}
	return nil
}

func (m *simpleScanMapper) Close() error {
	if m.out != nil {
		resultBatches.Put(m.out)
		m.out = nil
	}
	return releaseRegisters(&m.filter, m.exprs)
}

func (m *simpleScanMapper) MapBatch(b *mapred.RecordBatch, _ mapred.Emitter) error {
	sel, err := m.filter.begin(b)
	if err != nil || len(sel) == 0 {
		return err
	}
	if err := beginBatchAll(m.exprs, b, sel); err != nil {
		return err
	}
	if m.out == nil {
		m.out = resultBatches.Get()
	}
	out := m.out
	out.Shape(len(m.exprs), len(sel)) // Gather resets every column
	for j := range m.exprs {
		out.Cols[j].Gather(m.exprs[j].res, sel)
	}
	if m.top != nil {
		m.top.pushBatch(out)
		return nil
	}
	kept, err := m.emitBatch(out)
	if kept {
		m.out = nil
	}
	return err
}
