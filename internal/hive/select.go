package hive

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dualtable/internal/datum"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/orcfile"
	"dualtable/internal/sim"
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

// runSelect executes a SELECT and returns its rows. Simulated time is
// accumulated into extMeter when non-nil.
func (e *Engine) runSelect(ec *ExecContext, sel *sqlparser.SelectStmt, extMeter *sim.Meter) (*ResultSet, error) {
	meter := sim.NewMeter(&e.MR.Params)
	rows, cols, err := e.execSelect(ec, sel, meter)
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{Columns: cols, Rows: rows, SimSeconds: meter.Seconds(), Plan: "SELECT"}
	extMeter.AddSeconds(rs.SimSeconds)
	return rs, nil
}

func (e *Engine) execSelect(ec *ExecContext, sel *sqlparser.SelectStmt, meter *sim.Meter) ([]datum.Row, []string, error) {
	// SELECT without FROM: evaluate items over an empty row.
	if sel.From == nil {
		emptySc := &scope{}
		var row datum.Row
		var names []string
		for i, it := range sel.Items {
			fn, err := e.compileExpr(ec, it.Expr, emptySc)
			if err != nil {
				return nil, nil, err
			}
			d, err := fn(nil)
			if err != nil {
				return nil, nil, err
			}
			row = append(row, d)
			names = append(names, outputName(it, i))
		}
		return []datum.Row{row}, names, nil
	}

	rel, err := e.buildRelation(ec, sel.From, sel, meter)
	if err != nil {
		return nil, nil, err
	}
	defer rel.Release()

	items, err := expandStars(sel.Items, rel)
	if err != nil {
		return nil, nil, err
	}

	// Aggregation analysis.
	hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, it := range items {
		if sqlparser.ContainsAggregate(it.Expr) {
			hasAgg = true
		}
	}
	for _, o := range sel.OrderBy {
		if sqlparser.ContainsAggregate(o.Expr) {
			hasAgg = true
		}
	}

	var rows []datum.Row
	var names []string
	if hasAgg {
		rows, names, err = e.execAggSelect(ec, sel, items, rel, meter)
	} else {
		rows, names, err = e.execSimpleSelect(ec, sel, items, rel, meter)
	}
	if err != nil {
		return nil, nil, err
	}

	nVisible := len(items)
	// DISTINCT on visible columns.
	if sel.Distinct {
		seen := map[string]bool{}
		var out []datum.Row
		for _, r := range rows {
			key := string(datum.SortableRowKey(nil, r[:nVisible]))
			if !seen[key] {
				seen[key] = true
				out = append(out, r)
			}
		}
		meter.CPURows(int64(len(rows)))
		rows = out
	}
	limit, err := sel.EffectiveLimit()
	if err != nil {
		return nil, nil, err
	}
	// ORDER BY on hidden key columns (appended by the stages).
	if len(sel.OrderBy) > 0 {
		desc := make([]bool, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			desc[i] = o.Desc
		}
		n := len(rows)
		if limit >= 0 && int64(len(rows)) > limit {
			// Bounded selection first: only the limit best rows under
			// (order keys, arrival order) can survive the sort+truncate,
			// and the heap returns them in arrival order, so the stable
			// sort below yields the exact same prefix while touching
			// limit rows instead of all of them.
			h := &topHeap{limit: limit, keyAt: nVisible, desc: desc}
			for _, r := range rows {
				h.push(r)
			}
			rows = h.survivors()
		}
		sort.SliceStable(rows, func(i, j int) bool {
			for k := 0; k < len(sel.OrderBy); k++ {
				c := datum.Compare(rows[i][nVisible+k], rows[j][nVisible+k])
				if c != 0 {
					if desc[k] {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		// A total sort still runs on a single reducer in Hive and reads
		// every row; charge the full pass.
		meter.CPURows(int64(n) * 2)
	}
	if limit >= 0 && int64(len(rows)) > limit {
		rows = rows[:limit]
	}
	// Strip hidden order-key columns.
	for i := range rows {
		rows[i] = rows[i][:nVisible]
	}
	return rows, names, nil
}

// outputName picks the result column name for a select item.
func outputName(it sqlparser.SelectItem, idx int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if ref, ok := it.Expr.(*sqlparser.ColumnRef); ok {
		return ref.Name
	}
	return fmt.Sprintf("_c%d", idx)
}

// expandStars replaces * and t.* items with explicit column refs.
func expandStars(items []sqlparser.SelectItem, rel *relation) ([]sqlparser.SelectItem, error) {
	var out []sqlparser.SelectItem
	for _, it := range items {
		star, ok := it.Expr.(*sqlparser.Star)
		if !ok {
			out = append(out, it)
			continue
		}
		q := strings.ToLower(star.Table)
		matched := false
		for i, c := range rel.sc.cols {
			if q != "" && c.qual != q {
				continue
			}
			matched = true
			out = append(out, sqlparser.SelectItem{
				Expr:  &sqlparser.ColumnRef{Table: star.Table, Name: rel.names[i]},
				Alias: rel.names[i],
			})
		}
		if !matched {
			return nil, fmt.Errorf("hive: %s matches no columns", star)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("hive: empty select list")
	}
	return out, nil
}

// simpleScanPlan is the compiled filter+project stage of a SELECT
// without aggregation. execSimpleSelect collects its job's output and
// the streaming SELECT (rows.go) feeds it to a channel; both run
// simpleScanMapper.
type simpleScanPlan struct {
	names  []string
	filter scanFilter // unused template, copied per mapper
	projs  []vecExpr
	orders []vecExpr
	limit  int64 // -1 = none
	desc   []bool
	topN   bool
}

// planSimpleScan compiles WHERE, the select list and the hidden ORDER
// BY key columns against the relation's scope.
func (e *Engine) planSimpleScan(ec *ExecContext, sel *sqlparser.SelectStmt, items []sqlparser.SelectItem, rel *relation) (*simpleScanPlan, error) {
	filter, err := e.newScanFilter(ec, sel.Where, rel.sc)
	if err != nil {
		return nil, err
	}
	projFns := make([]evalFn, len(items))
	p := &simpleScanPlan{names: make([]string, len(items)), filter: filter, desc: make([]bool, len(sel.OrderBy))}
	for i, it := range items {
		projFns[i], err = e.compileExpr(ec, it.Expr, rel.sc)
		if err != nil {
			return nil, err
		}
		p.names[i] = outputName(it, i)
	}
	// Order keys that resolve as select-list aliases keep their evalFn
	// only (the alias does not name an input column); the others get
	// the vectorized fast paths like WHERE and the projections: vector
	// programs for computed expressions, direct vector reads for bare
	// column refs.
	orderFns := make([]evalFn, len(sel.OrderBy))
	orderExprs := make([]sqlparser.Expr, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		p.desc[i] = o.Desc
		// Try output aliases first, then the input scope.
		if fn, err2 := e.compileOrderKey(o.Expr, items, projFns); err2 == nil {
			orderFns[i] = fn
			continue
		}
		orderFns[i], err = e.compileExpr(ec, o.Expr, rel.sc)
		if err != nil {
			return nil, err
		}
		orderExprs[i] = o.Expr
	}
	p.projs = compileVecExprs(itemExprs(items), projFns, rel.sc)
	p.orders = compileVecExprs(orderExprs, orderFns, rel.sc)

	// ORDER BY ... LIMIT streams through a per-task top-N heap.
	// DISTINCT dedups across the whole result before the sort, so its
	// tasks must keep everything.
	p.limit, err = sel.EffectiveLimit()
	if err != nil {
		return nil, err
	}
	p.topN = p.limit >= 0 && len(sel.OrderBy) > 0 && !sel.Distinct
	return p, nil
}

// newMapper builds one task's mapper. Each mapper owns its filter and
// vecExpr slices: compiled programs are shared, but per-batch program
// state is not.
func (p *simpleScanPlan) newMapper() mapred.Mapper {
	m := &simpleScanMapper{
		filter: p.filter,
		projs:  slices.Clone(p.projs),
		orders: slices.Clone(p.orders),
	}
	if p.topN {
		m.top = &topHeap{limit: p.limit, keyAt: len(p.projs), desc: p.desc}
	}
	return m
}

// execSimpleSelect runs filter+project as one map-only job, appending
// hidden ORDER BY key columns.
func (e *Engine) execSimpleSelect(ec *ExecContext, sel *sqlparser.SelectStmt, items []sqlparser.SelectItem, rel *relation, meter *sim.Meter) ([]datum.Row, []string, error) {
	plan, err := e.planSimpleScan(ec, sel, items, rel)
	if err != nil {
		return nil, nil, err
	}
	job := &mapred.Job{Name: "select", Splits: rel.splits, NewMapper: plan.newMapper}
	res, err := e.MR.RunContext(ec.Context(), job)
	if err != nil {
		return nil, nil, err
	}
	meter.AddSeconds(res.SimSeconds)
	return res.Rows, plan.names, nil
}

// itemExprs projects the expression list out of select items.
func itemExprs(items []sqlparser.SelectItem) []sqlparser.Expr {
	out := make([]sqlparser.Expr, len(items))
	for i := range items {
		out[i] = items[i].Expr
	}
	return out
}

// simpleScanMapper is the filter+project mapper: the filter step
// selects a batch's surviving rows and only those are materialized —
// and of those only the columns an expression actually needs. For
// ORDER BY ... LIMIT n queries the task streams its rows through a
// bounded top-N heap and emits at most n at Flush, in arrival order:
// only a task's n best rows can survive the global stable sort +
// truncate, so the final result is unchanged while the job stops
// materializing full result sets.
type simpleScanMapper struct {
	filter scanFilter
	projs  []vecExpr
	orders []vecExpr
	top    *topHeap // nil unless ORDER BY ... LIMIT
}

// emitRow routes one projected row to the collector or the top-N heap.
func (m *simpleScanMapper) emitRow(out datum.Row, emit mapred.Emitter) error {
	if m.top == nil {
		return emit(nil, out)
	}
	m.top.push(out)
	return nil
}

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

func (m *simpleScanMapper) MapBatch(b *mapred.RecordBatch, emit mapred.Emitter) error {
	sel, err := m.filter.begin(b)
	if err != nil {
		return err
	}
	if len(sel) > 0 {
		beginBatchAll(m.projs, b)
		beginBatchAll(m.orders, b)
	}
	for _, i := range sel {
		out := make(datum.Row, 0, len(m.projs)+len(m.orders))
		for pi := range m.projs {
			d, err := m.projs[pi].eval(b, int(i), &m.filter.brow)
			if err != nil {
				return err
			}
			out = append(out, d)
		}
		for oi := range m.orders {
			d, err := m.orders[oi].eval(b, int(i), &m.filter.brow)
			if err != nil {
				return err
			}
			out = append(out, d)
		}
		if err := m.emitRow(out, emit); err != nil {
			return err
		}
	}
	return nil
}

// topRow pairs a kept row with its arrival ordinal.
type topRow struct {
	row datum.Row
	seq int64
}

// topHeap keeps the limit best rows under (order keys ascending with
// desc flags, then arrival order) — a bounded max-heap whose root is
// the worst kept row. (keys, seq) is a strict total order, so the
// kept set is exactly the rows a stable sort + truncate would keep,
// and survivors() returns them in arrival order: feeding them to the
// existing stable sort reproduces the unbounded result byte for byte.
type topHeap struct {
	limit int64
	keyAt int // order key columns start at row[keyAt:]
	desc  []bool
	rows  []topRow
	seq   int64
}

// worse reports whether a sorts strictly after b.
func (h *topHeap) worse(a, b topRow) bool {
	for k := range h.desc {
		c := datum.Compare(a.row[h.keyAt+k], b.row[h.keyAt+k])
		if c != 0 {
			if h.desc[k] {
				return c < 0
			}
			return c > 0
		}
	}
	return a.seq > b.seq
}

// push offers one row to the heap, keeping at most limit.
func (h *topHeap) push(row datum.Row) {
	t := topRow{row: row, seq: h.seq}
	h.seq++
	if int64(len(h.rows)) < h.limit {
		h.rows = append(h.rows, t)
		for i := len(h.rows) - 1; i > 0; {
			parent := (i - 1) / 2
			if !h.worse(h.rows[i], h.rows[parent]) {
				break
			}
			h.rows[i], h.rows[parent] = h.rows[parent], h.rows[i]
			i = parent
		}
		return
	}
	if h.limit == 0 || !h.worse(h.rows[0], t) {
		return // the newcomer is no better than the worst kept row
	}
	h.rows[0] = t
	// Sift the new root down.
	i := 0
	for {
		worst := i
		if l := 2*i + 1; l < len(h.rows) && h.worse(h.rows[l], h.rows[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h.rows) && h.worse(h.rows[r], h.rows[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.rows[i], h.rows[worst] = h.rows[worst], h.rows[i]
		i = worst
	}
}

// survivors drains the heap, returning the kept rows in arrival order.
func (h *topHeap) survivors() []datum.Row {
	sort.Slice(h.rows, func(i, j int) bool { return h.rows[i].seq < h.rows[j].seq })
	out := make([]datum.Row, len(h.rows))
	for i := range h.rows {
		out[i] = h.rows[i].row
	}
	h.rows = h.rows[:0]
	return out
}

// compileOrderKey resolves an ORDER BY expression against the select
// list: a bare column ref matching an alias refers to that item.
func (e *Engine) compileOrderKey(expr sqlparser.Expr, items []sqlparser.SelectItem, projFns []evalFn) (evalFn, error) {
	ref, ok := expr.(*sqlparser.ColumnRef)
	if !ok || ref.Table != "" {
		return nil, fmt.Errorf("not an alias reference")
	}
	for i, it := range items {
		if strings.EqualFold(outputName(it, i), ref.Name) {
			fn := projFns[i]
			return fn, nil
		}
	}
	return nil, fmt.Errorf("no alias %s", ref.Name)
}

// aggSpec is one distinct aggregate call of the query.
type aggSpec struct {
	call     *sqlparser.FuncCall
	distinct bool
	star     bool
}

// execAggSelect runs the aggregation pipeline: map (filter, group
// keys, agg args) → reduce (aggregate) → post-projection (having,
// items, order keys).
func (e *Engine) execAggSelect(ec *ExecContext, sel *sqlparser.SelectStmt, items []sqlparser.SelectItem, rel *relation, meter *sim.Meter) ([]datum.Row, []string, error) {
	if sel.Where != nil && sqlparser.ContainsAggregate(sel.Where) {
		return nil, nil, fmt.Errorf("hive: aggregates are not allowed in WHERE")
	}
	filter, err := e.newScanFilter(ec, sel.Where, rel.sc)
	if err != nil {
		return nil, nil, err
	}

	// Collect distinct aggregate calls from items, HAVING, ORDER BY.
	var aggs []aggSpec
	aggIndex := map[string]int{}
	collect := func(x sqlparser.Expr) {
		sqlparser.WalkExpr(x, func(n sqlparser.Expr) bool {
			if _, ok := n.(*sqlparser.SubqueryExpr); ok {
				return false
			}
			if fc, ok := n.(*sqlparser.FuncCall); ok && sqlparser.IsAggregateFunc(fc.Name) {
				key := fc.String()
				if _, seen := aggIndex[key]; !seen {
					aggIndex[key] = len(aggs)
					aggs = append(aggs, aggSpec{call: fc, distinct: fc.Distinct, star: fc.Star})
				}
				return false
			}
			return true
		})
	}
	for _, it := range items {
		collect(it.Expr)
	}
	if sel.Having != nil {
		collect(sel.Having)
	}
	for _, o := range sel.OrderBy {
		collect(o.Expr)
	}

	// Compile group-by expressions and aggregate arguments against
	// the input scope.
	groupFns := make([]evalFn, len(sel.GroupBy))
	groupStrs := make([]string, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		if sqlparser.ContainsAggregate(g) {
			return nil, nil, fmt.Errorf("hive: aggregates are not allowed in GROUP BY")
		}
		groupFns[i], err = e.compileExpr(ec, g, rel.sc)
		if err != nil {
			return nil, nil, err
		}
		groupStrs[i] = g.String()
	}
	argFns := make([]evalFn, len(aggs))
	for i, a := range aggs {
		if a.star {
			continue
		}
		if len(a.call.Args) != 1 {
			return nil, nil, fmt.Errorf("hive: %s expects one argument", a.call.Name)
		}
		argFns[i], err = e.compileExpr(ec, a.call.Args[0], rel.sc)
		if err != nil {
			return nil, nil, err
		}
	}

	nGroup := len(groupFns)
	nAggs := len(aggs)

	// DISTINCT aggregates cannot be combined map-side; they ship raw
	// argument values. Everything else shuffles partial aggregates
	// and runs a combiner (Hive's map-side aggregation).
	anyDistinct := false
	for _, a := range aggs {
		if a.distinct {
			anyDistinct = true
		}
	}

	// Vectorized fast paths for the scan side of the aggregation.
	groupVec := compileVecExprs(sel.GroupBy, groupFns, rel.sc)
	argExprs := make([]sqlparser.Expr, len(aggs))
	for i, a := range aggs {
		if !a.star {
			argExprs[i] = a.call.Args[0]
		}
	}
	argVec := compileVecExprs(argExprs, argFns, rel.sc)
	scan := aggScanSpec{
		filter: filter,
		groups: groupVec,
		args:   argVec,
		aggs:   aggs,
	}

	// ---- Map + Reduce job ----
	var job *mapred.Job
	if anyDistinct {
		job = e.rawAggJob(rel, scan)
	} else {
		job = e.partialAggJob(rel, scan)
	}
	res, err := e.MR.RunContext(ec.Context(), job)
	if err != nil {
		return nil, nil, err
	}
	meter.AddSeconds(res.SimSeconds)
	reduced := res.Rows

	// Global aggregation over an empty input still yields one row.
	if nGroup == 0 && len(reduced) == 0 {
		row := make(datum.Row, nAggs)
		for i := range aggs {
			row[i] = computeAggregate(aggs[i], nil, 0)
		}
		reduced = []datum.Row{row}
	}

	// ---- Post-aggregation projection ----
	// Virtual scope: __grp0.. and __agg0.. columns.
	post := &scope{}
	for i := range groupFns {
		post.cols = append(post.cols, scopeCol{name: fmt.Sprintf("__grp%d", i)})
	}
	for i := range aggs {
		post.cols = append(post.cols, scopeCol{name: fmt.Sprintf("__agg%d", i)})
	}
	rewrite := func(x sqlparser.Expr) sqlparser.Expr {
		return rewritePostAgg(x, groupStrs, aggIndex, nGroup)
	}

	var havingFn evalFn
	if sel.Having != nil {
		havingFn, err = e.compileExpr(ec, rewrite(sel.Having), post)
		if err != nil {
			return nil, nil, err
		}
	}
	projFns := make([]evalFn, len(items))
	names := make([]string, len(items))
	for i, it := range items {
		projFns[i], err = e.compileExpr(ec, rewrite(it.Expr), post)
		if err != nil {
			return nil, nil, fmt.Errorf("hive: %s: %w (not in GROUP BY?)", it.Expr, err)
		}
		names[i] = outputName(it, i)
	}
	orderFns := make([]evalFn, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		if fn, err2 := e.compileOrderKey(o.Expr, items, projFns); err2 == nil {
			orderFns[i] = fn
			continue
		}
		orderFns[i], err = e.compileExpr(ec, rewrite(o.Expr), post)
		if err != nil {
			return nil, nil, err
		}
	}

	var out []datum.Row
	for _, r := range reduced {
		if havingFn != nil {
			ok, err := havingFn(r)
			if err != nil {
				return nil, nil, err
			}
			if !ok.Truthy() {
				continue
			}
		}
		row := make(datum.Row, 0, len(projFns)+len(orderFns))
		for _, fn := range projFns {
			d, err := fn(r)
			if err != nil {
				return nil, nil, err
			}
			row = append(row, d)
		}
		for _, fn := range orderFns {
			d, err := fn(r)
			if err != nil {
				return nil, nil, err
			}
			row = append(row, d)
		}
		out = append(out, row)
	}
	meter.CPURows(int64(len(reduced)))
	return out, names, nil
}

// rewritePostAgg replaces group-by expressions and aggregate calls
// with references into the reduced row (__grpN / __aggN).
func rewritePostAgg(x sqlparser.Expr, groupStrs []string, aggIndex map[string]int, nGroup int) sqlparser.Expr {
	if x == nil {
		return nil
	}
	s := x.String()
	for i, g := range groupStrs {
		if s == g {
			return &sqlparser.ColumnRef{Name: fmt.Sprintf("__grp%d", i)}
		}
	}
	if fc, ok := x.(*sqlparser.FuncCall); ok && sqlparser.IsAggregateFunc(fc.Name) {
		if idx, ok := aggIndex[fc.String()]; ok {
			return &sqlparser.ColumnRef{Name: fmt.Sprintf("__agg%d", idx)}
		}
	}
	switch v := x.(type) {
	case *sqlparser.BinaryExpr:
		return &sqlparser.BinaryExpr{Op: v.Op,
			L: rewritePostAgg(v.L, groupStrs, aggIndex, nGroup),
			R: rewritePostAgg(v.R, groupStrs, aggIndex, nGroup)}
	case *sqlparser.UnaryExpr:
		return &sqlparser.UnaryExpr{Op: v.Op, X: rewritePostAgg(v.X, groupStrs, aggIndex, nGroup)}
	case *sqlparser.FuncCall:
		args := make([]sqlparser.Expr, len(v.Args))
		for i, a := range v.Args {
			args[i] = rewritePostAgg(a, groupStrs, aggIndex, nGroup)
		}
		return &sqlparser.FuncCall{Name: v.Name, Args: args, Star: v.Star, Distinct: v.Distinct}
	case *sqlparser.CaseExpr:
		out := &sqlparser.CaseExpr{Operand: rewritePostAgg(v.Operand, groupStrs, aggIndex, nGroup),
			Else: rewritePostAgg(v.Else, groupStrs, aggIndex, nGroup)}
		for _, w := range v.Whens {
			out.Whens = append(out.Whens, sqlparser.WhenClause{
				Cond: rewritePostAgg(w.Cond, groupStrs, aggIndex, nGroup),
				Then: rewritePostAgg(w.Then, groupStrs, aggIndex, nGroup)})
		}
		return out
	case *sqlparser.IsNullExpr:
		return &sqlparser.IsNullExpr{X: rewritePostAgg(v.X, groupStrs, aggIndex, nGroup), Not: v.Not}
	case *sqlparser.InExpr:
		out := &sqlparser.InExpr{X: rewritePostAgg(v.X, groupStrs, aggIndex, nGroup), Not: v.Not}
		for _, i := range v.List {
			out.List = append(out.List, rewritePostAgg(i, groupStrs, aggIndex, nGroup))
		}
		return out
	case *sqlparser.BetweenExpr:
		return &sqlparser.BetweenExpr{
			X:   rewritePostAgg(v.X, groupStrs, aggIndex, nGroup),
			Lo:  rewritePostAgg(v.Lo, groupStrs, aggIndex, nGroup),
			Hi:  rewritePostAgg(v.Hi, groupStrs, aggIndex, nGroup),
			Not: v.Not}
	case *sqlparser.LikeExpr:
		return &sqlparser.LikeExpr{
			X:       rewritePostAgg(v.X, groupStrs, aggIndex, nGroup),
			Pattern: rewritePostAgg(v.Pattern, groupStrs, aggIndex, nGroup),
			Not:     v.Not}
	case *sqlparser.CastExpr:
		return &sqlparser.CastExpr{X: rewritePostAgg(v.X, groupStrs, aggIndex, nGroup), Type: v.Type}
	default:
		return x
	}
}

// ---- Aggregation jobs ----
//
// Partial-aggregate layout: each aggregate occupies aggPartialWidth
// datums in the shuffled row:
//
//	[count BIGINT, sum DOUBLE, sumInt BIGINT, intOnly BOOLEAN, min, max]
const aggPartialWidth = 6

// appendPartial appends the partial-aggregate segment for one argument
// value to dst in place (no temporary row allocation on the map hot
// path).
func appendPartial(dst datum.Row, d datum.Datum) datum.Row {
	if d.IsNull() {
		return append(dst, datum.Int(0), datum.Float(0), datum.Int(0), datum.Bool(true), datum.Null, datum.Null)
	}
	sum := 0.0
	sumInt := int64(0)
	intOnly := d.K == datum.KindInt
	if f, ok := d.AsFloat(); ok {
		sum = f
		if intOnly {
			sumInt = d.I
		}
	} else {
		intOnly = false
	}
	return append(dst, datum.Int(1), datum.Float(sum), datum.Int(sumInt), datum.Bool(intOnly), d, d)
}

// updatePartial folds one argument value into a partial segment in
// place — exactly mergePartial(p, appendPartial(nil, d)) without
// building the single-value segment. NULL arguments are no-ops, like
// merging the all-zero segment appendPartial emits for them.
func updatePartial(p datum.Row, d datum.Datum) {
	if d.IsNull() {
		return
	}
	p[0].I++
	intOnly := d.K == datum.KindInt
	if f, ok := d.AsFloat(); ok {
		p[1].F += f
		if intOnly {
			p[2].I += d.I
		}
	} else {
		intOnly = false
	}
	if !intOnly {
		p[3].B = false
	}
	if p[4].IsNull() || datum.Compare(d, p[4]) < 0 {
		p[4] = d
	}
	if p[5].IsNull() || datum.Compare(d, p[5]) > 0 {
		p[5] = d
	}
}

// updatePartialVec folds row i of a typed vector into a partial
// segment — exactly updatePartial(p, v.Datum(i)) without the Datum
// round-trip on the int/float hot path. Non-numeric kinds, and a
// min/max accumulator holding a different kind after mixed-kind
// input, take the generic path.
func updatePartialVec(p datum.Row, v *datum.ColumnVector, i int) {
	if v.Kind == datum.KindNull || v.Nulls[i] {
		return
	}
	if (v.Kind != datum.KindInt && v.Kind != datum.KindFloat) ||
		(!p[4].IsNull() && p[4].K != v.Kind) || (!p[5].IsNull() && p[5].K != v.Kind) {
		updatePartial(p, v.Datum(i))
		return
	}
	p[0].I++
	if v.Kind == datum.KindInt {
		x := v.Ints[i]
		p[1].F += float64(x)
		p[2].I += x
		if p[4].IsNull() || x < p[4].I {
			p[4] = datum.Int(x)
		}
		if p[5].IsNull() || x > p[5].I {
			p[5] = datum.Int(x)
		}
		return
	}
	f := v.Floats[i]
	p[1].F += f
	p[3].B = false
	if p[4].IsNull() || f < p[4].F {
		p[4] = datum.Float(f)
	}
	if p[5].IsNull() || f > p[5].F {
		p[5] = datum.Float(f)
	}
}

// mergePartial folds src into dst (both aggPartialWidth segments).
func mergePartial(dst, src datum.Row) {
	dst[0] = datum.Int(dst[0].I + src[0].I)
	dst[1] = datum.Float(dst[1].F + src[1].F)
	dst[2] = datum.Int(dst[2].I + src[2].I)
	dst[3] = datum.Bool(dst[3].B && src[3].B)
	if dst[4].IsNull() || (!src[4].IsNull() && datum.Compare(src[4], dst[4]) < 0) {
		dst[4] = src[4]
	}
	if dst[5].IsNull() || (!src[5].IsNull() && datum.Compare(src[5], dst[5]) > 0) {
		dst[5] = src[5]
	}
}

// finalizePartial produces the aggregate value from a partial.
func finalizePartial(name string, p datum.Row) datum.Datum {
	count := p[0].I
	switch name {
	case "COUNT":
		return datum.Int(count)
	case "SUM":
		if count == 0 {
			return datum.Null
		}
		if p[3].B {
			return datum.Int(p[2].I)
		}
		return datum.Float(p[1].F)
	case "AVG":
		if count == 0 {
			return datum.Null
		}
		return datum.Float(p[1].F / float64(count))
	case "MIN":
		return p[4]
	case "MAX":
		return p[5]
	default:
		return datum.Null
	}
}

// aggScanSpec is the compiled scan side of an aggregation: filter,
// group keys and aggregate arguments, each with its vectorized fast
// path.
type aggScanSpec struct {
	filter scanFilter
	groups []vecExpr
	args   []vecExpr
	aggs   []aggSpec
}

// cloneForMapper copies the spec with a private filter and vecExpr
// slices: compiled programs are shared across mappers, per-batch
// program state is not.
func (s aggScanSpec) cloneForMapper() aggScanSpec {
	s.groups = slices.Clone(s.groups)
	s.args = slices.Clone(s.args)
	return s
}

// maxHashGroups bounds the map-side hash table; past it the mapper
// flushes its partial groups and starts over (Hive's map-aggregation
// memory check). The flush point depends only on record order, so
// results stay deterministic across worker counts. A variable so the
// overflow path is testable.
var maxHashGroups = 1 << 16

// aggScanMapper is the scan side of an aggregation. In partial mode
// (everything but DISTINCT) it hash-aggregates map-side: each record
// folds into its group's accumulator in place and one partial row per
// group is emitted at Flush — Hive's hive.map.aggr, which removes the
// per-record row allocation, emit and combiner merge entirely. In raw
// mode (DISTINCT) it emits the argument values per record. Group keys
// and arguments come off the batch's vectors where available.
type aggScanMapper struct {
	aggScanSpec
	partial bool
	keyBuf  []byte
	groupRw datum.Row // reused group-value scratch
	accum   map[string]datum.Row
	order   []string // accum keys in first-seen order (deterministic Flush)
}

// emitRaw emits one batch row (already past the filter) as group
// values followed by the raw argument values.
func (m *aggScanMapper) emitRaw(b *mapred.RecordBatch, i int, emit mapred.Emitter) error {
	nGroup := len(m.groups)
	out := make(datum.Row, 0, nGroup+len(m.aggs))
	for gi := range m.groups {
		d, err := m.groups[gi].eval(b, i, &m.filter.brow)
		if err != nil {
			return err
		}
		out = append(out, d)
	}
	for ai := range m.aggs {
		if m.aggs[ai].star {
			out = append(out, datum.Bool(true))
			continue
		}
		d, err := m.args[ai].eval(b, i, &m.filter.brow)
		if err != nil {
			return err
		}
		out = append(out, d)
	}
	m.keyBuf = datum.SortableRowKey(m.keyBuf[:0], out[:nGroup])
	return emit(m.keyBuf, out)
}

// accFor returns the partial accumulator for the group values,
// creating it (and flushing the table when full) on first sight.
func (m *aggScanMapper) accFor(grp datum.Row, emit mapred.Emitter) (datum.Row, error) {
	nGroup := len(m.groups)
	m.keyBuf = datum.SortableRowKey(m.keyBuf[:0], grp)
	if m.accum == nil {
		m.accum = make(map[string]datum.Row)
	}
	acc, ok := m.accum[string(m.keyBuf)]
	if !ok {
		if len(m.accum) >= maxHashGroups {
			if err := m.Flush(emit); err != nil {
				return nil, err
			}
			m.accum = make(map[string]datum.Row)
		}
		acc = make(datum.Row, 0, nGroup+len(m.aggs)*aggPartialWidth)
		acc = append(acc, grp...)
		for range m.aggs {
			acc = append(acc, datum.Int(0), datum.Float(0), datum.Int(0), datum.Bool(true), datum.Null, datum.Null)
		}
		key := string(m.keyBuf)
		m.accum[key] = acc
		m.order = append(m.order, key)
	}
	return acc, nil
}

// foldPartial folds one batch row (already past the filter) into its
// group's accumulator: numeric argument vectors fold through the typed
// updatePartialVec instead of boxing a Datum per (record, aggregate).
func (m *aggScanMapper) foldPartial(b *mapred.RecordBatch, i int, emit mapred.Emitter) error {
	nGroup := len(m.groups)
	if cap(m.groupRw) < nGroup {
		m.groupRw = make(datum.Row, nGroup)
	}
	grp := m.groupRw[:nGroup]
	for gi := range m.groups {
		d, err := m.groups[gi].eval(b, i, &m.filter.brow)
		if err != nil {
			return err
		}
		grp[gi] = d
	}
	acc, err := m.accFor(grp, emit)
	if err != nil {
		return err
	}
	for ai := range m.aggs {
		seg := acc[nGroup+ai*aggPartialWidth:]
		if m.aggs[ai].star {
			updatePartial(seg, datum.Bool(true))
			continue
		}
		x := &m.args[ai]
		if v := x.vec(b); v != nil {
			updatePartialVec(seg, v, i)
			continue
		}
		d, err := x.eval(b, i, &m.filter.brow)
		if err != nil {
			return err
		}
		updatePartial(seg, d)
	}
	return nil
}

// Flush emits the hash-aggregated partial groups in first-seen order
// and resets the table.
func (m *aggScanMapper) Flush(emit mapred.Emitter) error {
	for _, key := range m.order {
		if err := emit([]byte(key), m.accum[key]); err != nil {
			return err
		}
	}
	m.accum = nil
	m.order = m.order[:0]
	return nil
}

func (m *aggScanMapper) MapBatch(b *mapred.RecordBatch, emit mapred.Emitter) error {
	sel, err := m.filter.begin(b)
	if err != nil {
		return err
	}
	if len(sel) > 0 {
		beginBatchAll(m.groups, b)
		beginBatchAll(m.args, b)
	}
	for _, i := range sel {
		if m.partial {
			err = m.foldPartial(b, int(i), emit)
		} else {
			err = m.emitRaw(b, int(i), emit)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// partialAggJob shuffles partial aggregates with a map-side combiner
// (Hive's hive.map.aggr). Group rows reaching the combiner and the
// reducer are engine-owned views into the shuffle runs, and a combiner
// emit copies into the output run, so both fold into a per-task
// scratch row instead of cloning per group.
func (e *Engine) partialAggJob(rel *relation, scan aggScanSpec) *mapred.Job {
	aggs := scan.aggs
	nGroup := len(scan.groups)
	mergeInto := func(scratch datum.Row, rows []datum.Row) datum.Row {
		scratch = append(scratch[:0], rows[0]...)
		for _, r := range rows[1:] {
			for i := range aggs {
				off := nGroup + i*aggPartialWidth
				mergePartial(scratch[off:off+aggPartialWidth], r[off:off+aggPartialWidth])
			}
		}
		return scratch
	}
	return &mapred.Job{
		Name:   "groupby",
		Splits: rel.splits,
		NewMapper: func() mapred.Mapper {
			return &aggScanMapper{aggScanSpec: scan.cloneForMapper(), partial: true}
		},
		NewCombiner: func() mapred.Reducer {
			var scratch datum.Row
			return mapred.ReduceFunc(func(key []byte, rows []datum.Row, emit mapred.Emitter) error {
				scratch = mergeInto(scratch, rows)
				return emit(key, scratch)
			})
		},
		NewReducer: func() mapred.Reducer {
			var scratch datum.Row
			return mapred.ReduceFunc(func(key []byte, rows []datum.Row, emit mapred.Emitter) error {
				scratch = mergeInto(scratch, rows)
				out := make(datum.Row, 0, nGroup+len(aggs))
				out = append(out, scratch[:nGroup]...)
				for i := range aggs {
					off := nGroup + i*aggPartialWidth
					out = append(out, finalizePartial(aggs[i].call.Name, scratch[off:off+aggPartialWidth]))
				}
				return emit(nil, out)
			})
		},
	}
}

// rawAggJob ships raw argument values (needed by DISTINCT).
func (e *Engine) rawAggJob(rel *relation, scan aggScanSpec) *mapred.Job {
	aggs := scan.aggs
	nGroup := len(scan.groups)
	nAggs := len(aggs)
	return &mapred.Job{
		Name:   "groupby-distinct",
		Splits: rel.splits,
		NewMapper: func() mapred.Mapper {
			return &aggScanMapper{aggScanSpec: scan.cloneForMapper()}
		},
		NewReducer: func() mapred.Reducer {
			return mapred.ReduceFunc(func(_ []byte, rows []datum.Row, emit mapred.Emitter) error {
				out := make(datum.Row, 0, nGroup+nAggs)
				out = append(out, rows[0][:nGroup]...)
				for i := range aggs {
					out = append(out, computeAggregate(aggs[i], rows, nGroup+i))
				}
				return emit(nil, out)
			})
		},
	}
}

// computeAggregate evaluates one aggregate over a group's rows; the
// argument sits at column argCol of each row.
func computeAggregate(spec aggSpec, rows []datum.Row, argCol int) datum.Datum {
	var seen map[string]bool
	if spec.distinct {
		seen = map[string]bool{}
	}
	count := int64(0)
	var sum float64
	haveSum := false
	sumIsInt := true
	var sumInt int64
	var min, max datum.Datum
	for _, r := range rows {
		d := r[argCol]
		if d.IsNull() {
			continue
		}
		if spec.distinct {
			key := string(datum.SortableKey(nil, d))
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		count++
		if f, ok := d.AsFloat(); ok {
			sum += f
			haveSum = true
			if d.K == datum.KindInt {
				sumInt += d.I
			} else {
				sumIsInt = false
			}
		} else {
			sumIsInt = false
		}
		if min.IsNull() || datum.Compare(d, min) < 0 {
			min = d
		}
		if max.IsNull() || datum.Compare(d, max) > 0 {
			max = d
		}
	}
	switch spec.call.Name {
	case "COUNT":
		return datum.Int(count)
	case "SUM":
		if !haveSum {
			return datum.Null
		}
		if sumIsInt {
			return datum.Int(sumInt)
		}
		return datum.Float(sum)
	case "AVG":
		if count == 0 || !haveSum {
			return datum.Null
		}
		return datum.Float(sum / float64(count))
	case "MIN":
		return min
	case "MAX":
		return max
	default:
		return datum.Null
	}
}

// buildRelation resolves a FROM clause into a relation. The top-level
// SELECT is passed in for pushdown analysis on single-table scans.
func (e *Engine) buildRelation(ec *ExecContext, ref sqlparser.TableRef, sel *sqlparser.SelectStmt, meter *sim.Meter) (*relation, error) {
	switch t := ref.(type) {
	case *sqlparser.TableName:
		return e.buildTableScan(ec, t, sel, meter)
	case *sqlparser.SubqueryRef:
		rs, err := e.runSelect(ec, t.Select, meter)
		if err != nil {
			return nil, err
		}
		sc := &scope{}
		q := strings.ToLower(t.Alias)
		kinds := inferKinds(rs)
		for i, n := range rs.Columns {
			sc.cols = append(sc.cols, scopeCol{qual: q, name: strings.ToLower(n), kind: kinds[i]})
		}
		return &relation{sc: sc, names: rs.Columns, splits: sliceSplitsFor(rs.Rows)}, nil
	case *sqlparser.JoinRef:
		return e.execJoin(ec, t, sel, meter)
	default:
		return nil, fmt.Errorf("hive: unsupported FROM clause %T", ref)
	}
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

// sliceSplitsFor chunks materialized rows into splits, charging their
// encoded size as simulated intermediate I/O on open.
func sliceSplitsFor(rows []datum.Row) []mapred.InputSplit {
	const chunk = 100000
	var splits []mapred.InputSplit
	for off := 0; off < len(rows); off += chunk {
		end := off + chunk
		if end > len(rows) {
			end = len(rows)
		}
		var size int64
		for _, r := range rows[off:end] {
			size += int64(datum.RowEncodedSize(r))
		}
		splits = append(splits, &mapred.SliceSplit{Rows: rows[off:end], SimSize: size})
	}
	if len(splits) == 0 {
		splits = []mapred.InputSplit{&mapred.SliceSplit{}}
	}
	return splits
}

// buildTableScan plans a base-table scan with projection and
// predicate pushdown (single-table queries only push predicates) plus
// time-travel resolution: an AS OF EPOCH clause on the table reference
// or the session's read.epoch setting pins the scan at a historical
// manifest epoch.
func (e *Engine) buildTableScan(ec *ExecContext, t *sqlparser.TableName, sel *sqlparser.SelectStmt, meter *sim.Meter) (*relation, error) {
	desc, err := e.MS.Get(t.Name)
	if err != nil {
		return nil, err
	}
	h, err := e.Handler(desc.Storage)
	if err != nil {
		return nil, err
	}
	alias := t.Alias
	if alias == "" {
		alias = t.Name
	}
	sc := newScope(alias, desc.Schema)

	opts := ScanOptions{}
	opts.AsOfEpoch, err = resolveReadEpoch(ec, t)
	if err != nil {
		return nil, err
	}
	// Predicate pushdown only when this table is the sole FROM source
	// (conjuncts referencing just it are then safe to push).
	if sel != nil && sel.From == sqlparser.TableRef(t) && sel.Where != nil {
		opts.SArg = extractSArg(sel.Where, sc, desc.Schema)
	}
	// Projection pushdown: columns the query references.
	if sel != nil && sel.From == sqlparser.TableRef(t) {
		opts.Projection = referencedColumns(sel, sc)
	}

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
	return &relation{sc: sc, names: desc.Schema.Names(), splits: splits, release: release}, nil
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
	return extractSArg(where, newScope(qualifier, schema), schema)
}

// extractSArg converts pushable conjuncts (col <op> literal) into an
// ORC search argument.
func extractSArg(where sqlparser.Expr, sc *scope, schema datum.Schema) *orcfile.SearchArg {
	var preds []orcfile.Predicate
	for _, conj := range sqlparser.SplitConjuncts(where) {
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

// referencedColumns lists the table columns the query touches.
func referencedColumns(sel *sqlparser.SelectStmt, sc *scope) []int {
	needed := map[int]bool{}
	sawStar := false
	visit := func(x sqlparser.Expr) {
		sqlparser.WalkExpr(x, func(n sqlparser.Expr) bool {
			switch v := n.(type) {
			case *sqlparser.Star:
				sawStar = true
			case *sqlparser.ColumnRef:
				if idx, err := sc.resolve(v); err == nil {
					needed[idx] = true
				}
			case *sqlparser.SubqueryExpr:
				// Correlated refs inside subqueries reference the
				// outer table too; resolve conservatively.
				sqlparser.WalkExpr(v.Select.Where, func(m sqlparser.Expr) bool {
					if ref, ok := m.(*sqlparser.ColumnRef); ok {
						if idx, err := sc.resolve(ref); err == nil {
							needed[idx] = true
						}
					}
					return true
				})
				return false
			}
			return true
		})
	}
	for _, it := range sel.Items {
		visit(it.Expr)
	}
	visit(sel.Where)
	for _, g := range sel.GroupBy {
		visit(g)
	}
	visit(sel.Having)
	for _, o := range sel.OrderBy {
		visit(o.Expr)
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

// execJoin materializes both sides and runs a reduce-side equi-join.
func (e *Engine) execJoin(ec *ExecContext, j *sqlparser.JoinRef, sel *sqlparser.SelectStmt, meter *sim.Meter) (*relation, error) {
	left, err := e.buildRelation(ec, j.Left, nil, meter)
	if err != nil {
		return nil, err
	}
	defer left.Release()
	right, err := e.buildRelation(ec, j.Right, nil, meter)
	if err != nil {
		return nil, err
	}
	defer right.Release()
	combined := left.sc.concat(right.sc)
	leftWidth := len(left.sc.cols)
	rightWidth := len(right.sc.cols)

	// Extract equi-join keys from the ON condition.
	var leftKeyFns, rightKeyFns []evalFn
	var residual []sqlparser.Expr
	if j.On != nil {
		for _, conj := range sqlparser.SplitConjuncts(j.On) {
			bin, ok := conj.(*sqlparser.BinaryExpr)
			if ok && bin.Op == "=" {
				switch {
				case e.refsResolveIn(bin.L, left.sc) && e.refsResolveIn(bin.R, right.sc):
					lf, err := e.compileExpr(ec, bin.L, left.sc)
					if err != nil {
						return nil, err
					}
					rf, err := e.compileExpr(ec, bin.R, right.sc)
					if err != nil {
						return nil, err
					}
					leftKeyFns = append(leftKeyFns, lf)
					rightKeyFns = append(rightKeyFns, rf)
					continue
				case e.refsResolveIn(bin.R, left.sc) && e.refsResolveIn(bin.L, right.sc):
					lf, err := e.compileExpr(ec, bin.R, left.sc)
					if err != nil {
						return nil, err
					}
					rf, err := e.compileExpr(ec, bin.L, right.sc)
					if err != nil {
						return nil, err
					}
					leftKeyFns = append(leftKeyFns, lf)
					rightKeyFns = append(rightKeyFns, rf)
					continue
				}
			}
			residual = append(residual, conj)
		}
	}
	var residualFn evalFn
	if len(residual) > 0 {
		residualFn, err = e.compileExpr(ec, sqlparser.CombineConjuncts(residual), combined)
		if err != nil {
			return nil, err
		}
	}

	// Tag inputs: left rows get tag 0, right rows tag 1 (appended as
	// a trailing datum so one mapper can tell them apart).
	var splits []mapred.InputSplit
	for _, s := range left.splits {
		splits = append(splits, &taggedSplit{inner: s, tag: 0})
	}
	for _, s := range right.splits {
		splits = append(splits, &taggedSplit{inner: s, tag: 1})
	}

	joinType := j.Type
	job := &mapred.Job{
		Name:   "join",
		Splits: splits,
		NewMapper: func() mapred.Mapper {
			nullSeq := int64(0)
			var keyBuf []byte
			var keyRow datum.Row
			return mapred.MapFunc(func(row datum.Row, _ mapred.RecordMeta, emit mapred.Emitter) error {
				tag := row[len(row)-1].I
				data := row[:len(row)-1]
				keyFns := leftKeyFns
				if tag == 1 {
					keyFns = rightKeyFns
				}
				keyRow = keyRow[:0]
				hasNull := false
				for _, fn := range keyFns {
					d, err := fn(data)
					if err != nil {
						return err
					}
					if d.IsNull() {
						hasNull = true
					}
					keyRow = append(keyRow, d)
				}
				// The engine copies the key on emit, so one buffer
				// serves the whole task.
				switch {
				case len(keyFns) == 0:
					keyBuf = append(keyBuf[:0], 0x01) // cartesian: single group
				case hasNull:
					// NULL keys never match; isolate in unique groups.
					nullSeq++
					keyBuf = datum.SortableKey(append(keyBuf[:0], 0x00, byte(tag)), datum.Int(nullSeq))
				default:
					keyBuf = datum.SortableRowKey(append(keyBuf[:0], 0x01), keyRow)
				}
				return emit(keyBuf, row) // row still carries the tag
			})
		},
		NewReducer: func() mapred.Reducer {
			return mapred.ReduceFunc(func(_ []byte, rows []datum.Row, emit mapred.Emitter) error {
				var lefts, rights []datum.Row
				for _, r := range rows {
					if r[len(r)-1].I == 0 {
						lefts = append(lefts, r[:len(r)-1])
					} else {
						rights = append(rights, r[:len(r)-1])
					}
				}
				leftMatched := make([]bool, len(lefts))
				rightMatched := make([]bool, len(rights))
				for li, l := range lefts {
					for ri, r := range rights {
						out := make(datum.Row, 0, leftWidth+rightWidth)
						out = append(out, l...)
						out = append(out, r...)
						if residualFn != nil {
							ok, err := residualFn(out)
							if err != nil {
								return err
							}
							if !ok.Truthy() {
								continue
							}
						}
						leftMatched[li] = true
						rightMatched[ri] = true
						if err := emit(nil, out); err != nil {
							return err
						}
					}
				}
				if joinType == sqlparser.JoinLeft || joinType == sqlparser.JoinFull {
					for li, l := range lefts {
						if !leftMatched[li] {
							out := make(datum.Row, leftWidth+rightWidth)
							copy(out, l)
							if err := emit(nil, out); err != nil {
								return err
							}
						}
					}
				}
				if joinType == sqlparser.JoinRight || joinType == sqlparser.JoinFull {
					for ri, r := range rights {
						if !rightMatched[ri] {
							out := make(datum.Row, leftWidth+rightWidth)
							copy(out[leftWidth:], r)
							if err := emit(nil, out); err != nil {
								return err
							}
						}
					}
				}
				return nil
			})
		},
	}
	res, err := e.MR.RunContext(ec.Context(), job)
	if err != nil {
		return nil, err
	}
	meter.AddSeconds(res.SimSeconds)
	names := append(append([]string{}, left.names...), right.names...)
	return &relation{sc: combined, names: names, splits: sliceSplitsFor(res.Rows)}, nil
}

// taggedSplit appends a tag datum to every row of the wrapped split.
type taggedSplit struct {
	inner mapred.InputSplit
	tag   int64
}

func (t *taggedSplit) Open(m *sim.Meter) (mapred.RecordReader, error) {
	rr, err := t.inner.Open(m)
	if err != nil {
		return nil, err
	}
	return &taggedReader{inner: rr, tag: datum.Int(t.tag)}, nil
}

func (t *taggedSplit) Length() int64 { return t.inner.Length() }

type taggedReader struct {
	inner mapred.RecordReader
	tag   datum.Datum
}

func (r *taggedReader) Next() (datum.Row, mapred.RecordMeta, error) {
	row, meta, err := r.inner.Next()
	if err != nil {
		return nil, meta, err
	}
	out := make(datum.Row, 0, len(row)+1)
	out = append(out, row...)
	out = append(out, r.tag)
	return out, meta, nil
}

func (r *taggedReader) Close() error { return r.inner.Close() }
