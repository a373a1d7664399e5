package hive

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dualtable/internal/datum"
	"dualtable/internal/mapred"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// runSelect executes a SELECT and returns its rows. Its counts and
// seconds are added to ext when non-nil.
func (e *Engine) runSelect(ec *ExecContext, sel *sqlparser.SelectStmt, ext *sim.Ledger) (*ResultSet, error) {
	ledger := sim.NewLedger(&e.MR.Params)
	plan, err := e.planSelect(ec, sel, ledger)
	if err != nil {
		return nil, err
	}
	defer plan.Release()
	rows, err := plan.collect(e, ec, ledger)
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{Columns: plan.names, Rows: rows, SimSeconds: ledger.Seconds(), Counts: ledger.Counts(), Plan: "SELECT"}
	if ext != nil {
		ext.Add(rs.Counts, rs.SimSeconds)
	}
	return rs, nil
}

// selectPlan is a compiled SELECT: the pinned source, the one job that
// scans it, and the tail that shapes the job's output. It is compiled
// once (planSelect) and then either collected (collect: run the job,
// apply the tail) or, when streamable, streamed (QueryStmtCtx: the same
// job into a channel sink). Release unpins the source exactly once.
type selectPlan struct {
	names []string // result column names
	rel   *relation

	// job scans rel: filter + project (scan.go), or the aggregation's
	// map + reduce (aggregate.go). Its rows carry the visible columns
	// followed by one hidden column per ORDER BY key. Nil for a SELECT
	// without FROM, whose one row is static.
	job    *mapred.Job
	static []datum.Row

	// Aggregation only: the job emits reduced rows [group keys,
	// aggregate values] and post — HAVING, the select list and the
	// order keys over that row — turns them into result rows
	// in-process. emptyRow is the reduced row of a global aggregate
	// when nothing matched.
	post     *simpleScanPlan
	emptyRow datum.Row

	// The tail: DISTINCT → stable sort on the hidden keys (top-N first
	// under a LIMIT) → LIMIT → strip the hidden keys.
	distinct bool
	desc     []bool // per ORDER BY key
	limit    int64  // -1 = none

	// streamable: per-row filter + project only, so rows can leave the
	// map phase as they are produced, LIMIT enforced by the sink.
	streamable bool
}

// Release unpins the plan's source. Idempotent.
func (p *selectPlan) Release() { p.rel.Release() }

// planFrom plans the FROM clause of a SELECT without running anything.
// It returns the planned tree and the SELECT left to compile over the
// tree's output: a copy of sel whose stars are expanded against every
// column the tree exposes and whose WHERE holds what stayed above the
// tree — everything, unless conjuncts sank into a join.
func (e *Engine) planFrom(sel *sqlparser.SelectStmt) (*fromNode, *sqlparser.SelectStmt, error) {
	from, err := e.resolveFrom(sel.From)
	if err != nil {
		return nil, nil, err
	}
	above := *sel
	if above.Items, err = expandStars(sel.Items, from.sc, from.names); err != nil {
		return nil, nil, err
	}
	if from.join == nil {
		// A lone table is scanned with the columns the statement names
		// and the SearchArg of its whole WHERE, which stays in the scan.
		from.where = sqlparser.SplitConjuncts(sel.Where)
		if from.table != nil {
			from.proj = referencedColumns(selectExprs(sel), from.sc)
		}
		return from, &above, nil
	}
	// The consumer of a join tree is this SELECT: conjuncts that may move
	// are offered to the tree, the rest is evaluated over its output.
	var movable, fixed []sqlparser.Expr
	for _, c := range sqlparser.SplitConjuncts(sel.Where) {
		if sqlparser.ContainsSubquery(c) || sqlparser.ContainsAggregate(c) {
			fixed = append(fixed, c)
		} else {
			movable = append(movable, c)
		}
	}
	above.Where = nil
	from.push(movable, append(selectExprs(&above), fixed...))
	above.Where = sqlparser.CombineConjuncts(slices.Concat(from.where, fixed))
	return from, &above, nil
}

// planSelect plans the FROM clause, opens it (running the jobs a join or
// a derived table needs, added to ledger) and compiles the SELECT over
// it. The plan owns the pinned relation: callers must Release it.
func (e *Engine) planSelect(ec *ExecContext, sel *sqlparser.SelectStmt, ledger *sim.Ledger) (*selectPlan, error) {
	if sel.From == nil {
		// SELECT without FROM: evaluate items over an empty row; the
		// tail still applies (LIMIT 0 returns nothing).
		p := &selectPlan{static: []datum.Row{nil}}
		var err error
		if p.limit, err = sel.EffectiveLimit(); err != nil {
			return nil, err
		}
		emptySc := &scope{}
		for i, it := range sel.Items {
			fn, err := e.compileExpr(ec, it.Expr, emptySc)
			if err != nil {
				return nil, err
			}
			d, err := fn(nil)
			if err != nil {
				return nil, err
			}
			p.static[0] = append(p.static[0], d)
			p.names = append(p.names, outputName(it, i))
		}
		return p, nil
	}
	from, sel, err := e.planFrom(sel)
	if err != nil {
		return nil, err
	}
	rel, err := e.buildRelation(ec, from, ledger)
	if err != nil {
		return nil, err
	}
	p, err := e.compileSelect(ec, sel, rel)
	if err != nil {
		rel.Release()
		return nil, err
	}
	return p, nil
}

// compileSelect compiles a SELECT, its stars already expanded, over its
// resolved source.
func (e *Engine) compileSelect(ec *ExecContext, sel *sqlparser.SelectStmt, rel *relation) (*selectPlan, error) {
	var err error
	items := sel.Items
	p := &selectPlan{rel: rel, names: make([]string, len(items)), distinct: sel.Distinct, desc: make([]bool, len(sel.OrderBy))}
	if p.limit, err = sel.EffectiveLimit(); err != nil {
		return nil, err
	}
	q := scanQuery{where: sel.Where, items: make([]sqlparser.Expr, len(items)), order: make([]orderKey, len(sel.OrderBy))}
	hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for i, it := range items {
		p.names[i] = outputName(it, i)
		q.items[i] = it.Expr
		hasAgg = hasAgg || sqlparser.ContainsAggregate(it.Expr)
	}
	for i, o := range sel.OrderBy {
		p.desc[i] = o.Desc
		q.order[i] = compileOrderKey(o.Expr, p.names)
		hasAgg = hasAgg || sqlparser.ContainsAggregate(o.Expr)
	}
	if hasAgg {
		return p, e.planAggregate(ec, sel, q, p)
	}
	scan, err := e.planSimpleScan(ec, q, rel.sc)
	if err != nil {
		return nil, err
	}
	// ORDER BY ... LIMIT streams through a per-task top-N heap.
	// DISTINCT dedups across the whole result before the sort, so its
	// tasks must keep everything.
	if p.limit >= 0 && len(p.desc) > 0 && !p.distinct {
		scan.topN, scan.desc = p.limit, p.desc
	}
	p.job = &mapred.Job{Name: "select", Splits: rel.splits, NewMapper: scan.newMapper}
	p.streamable = !p.distinct && len(p.desc) == 0
	return p, nil
}

// collect runs the plan to completion and returns the result rows.
func (p *selectPlan) collect(e *Engine, ec *ExecContext, ledger *sim.Ledger) ([]datum.Row, error) {
	if p.job == nil {
		return p.tail(p.static, ledger), nil
	}
	res, err := e.MR.RunContext(ec.Context(), p.job)
	if err != nil {
		return nil, err
	}
	ledger.Add(res.Counts, res.SimSeconds)
	rows := res.Rows
	if p.post != nil {
		if len(rows) == 0 && p.emptyRow != nil {
			rows = []datum.Row{p.emptyRow}
		}
		reduced := int64(len(rows))
		if rows, err = p.post.run(rows); err != nil {
			return nil, err
		}
		ledger.Charge(sim.CPURows, reduced)
	}
	return p.tail(rows, ledger), nil
}

// tail applies DISTINCT, ORDER BY and LIMIT to the job's rows and
// strips their hidden order-key columns.
func (p *selectPlan) tail(rows []datum.Row, ledger *sim.Ledger) []datum.Row {
	nVisible := len(p.names)
	// DISTINCT on visible columns.
	if p.distinct {
		seen := map[string]bool{}
		var out []datum.Row
		for _, r := range rows {
			key := string(datum.SortableRowKey(nil, r[:nVisible]))
			if !seen[key] {
				seen[key] = true
				out = append(out, r)
			}
		}
		ledger.Charge(sim.CPURows, int64(len(rows)))
		rows = out
	}
	// ORDER BY on hidden key columns (appended by the stages).
	if len(p.desc) > 0 {
		n := len(rows)
		if p.limit >= 0 && int64(len(rows)) > p.limit {
			// Bounded selection first: only the limit best rows under
			// (order keys, arrival order) can survive the sort+truncate,
			// and the heap returns them in arrival order, so the stable
			// sort below yields the exact same prefix while touching
			// limit rows instead of all of them.
			h := &topHeap{limit: p.limit, keyAt: nVisible, desc: p.desc}
			for _, r := range rows {
				h.push(r)
			}
			rows = h.survivors()
		}
		sort.SliceStable(rows, func(i, j int) bool {
			for k := range p.desc {
				c := datum.Compare(rows[i][nVisible+k], rows[j][nVisible+k])
				if c != 0 {
					if p.desc[k] {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		// A total sort still runs on a single reducer in Hive and reads
		// every row; charge the full pass.
		ledger.Charge(sim.CPURows, int64(n)*2)
	}
	if p.limit >= 0 && int64(len(rows)) > p.limit {
		rows = rows[:p.limit]
	}
	// Strip hidden order-key columns.
	for i := range rows {
		rows[i] = rows[i][:nVisible]
	}
	return rows
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
func expandStars(items []sqlparser.SelectItem, sc *scope, names []string) ([]sqlparser.SelectItem, error) {
	var out []sqlparser.SelectItem
	for _, it := range items {
		star, ok := it.Expr.(*sqlparser.Star)
		if !ok {
			out = append(out, it)
			continue
		}
		q := strings.ToLower(star.Table)
		matched := false
		for i, c := range sc.cols {
			if q != "" && c.qual != q {
				continue
			}
			matched = true
			out = append(out, sqlparser.SelectItem{
				Expr:  &sqlparser.ColumnRef{Table: star.Table, Name: names[i]},
				Alias: names[i],
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

	scratch datum.Row // pushBatch's candidate, not yet a row of its own
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

// pushBatch offers every row of a result batch to the heap. A row is
// cut from the batch only on entering the heap.
func (h *topHeap) pushBatch(b *datum.Batch) {
	for i := 0; i < b.Len; i++ {
		h.scratch = b.RowInto(h.scratch, i)
		if int64(len(h.rows)) < h.limit || (h.limit > 0 && h.worse(h.rows[0], topRow{row: h.scratch, seq: h.seq})) {
			h.push(slices.Clone(h.scratch))
		} else {
			h.seq++
		}
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
