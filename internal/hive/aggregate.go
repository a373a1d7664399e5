package hive

import (
	"fmt"
	"slices"

	"dualtable/internal/datum"
	"dualtable/internal/mapred"
	"dualtable/internal/sqlparser"
)

// aggSpec is one distinct aggregate call of the query.
type aggSpec struct {
	call     *sqlparser.FuncCall
	distinct bool
	star     bool
}

// planAggregate compiles the aggregation pipeline into p: the job —
// map (filter, group keys, aggregate arguments) → reduce (aggregate) —
// whose reduced rows are [group keys, aggregate values], and the scan
// plan (HAVING, the select list q.items, the order keys q.order) that
// runs over those rows.
func (e *Engine) planAggregate(ec *ExecContext, sel *sqlparser.SelectStmt, q scanQuery, p *selectPlan) error {
	rel := p.rel
	if sqlparser.ContainsAggregate(q.where) {
		return fmt.Errorf("hive: aggregates are not allowed in WHERE")
	}
	filter, err := e.newScanFilter(ec, q.where, rel.sc)
	if err != nil {
		return err
	}

	// The reduced row's scope: __grp0.. then __agg0.. columns. postCols
	// maps the text of each group-by expression and of each aggregate
	// call (once per spelling) to its column there.
	post := &scope{}
	postCols := map[string]string{}
	addPostCol := func(text, name string) {
		post.cols = append(post.cols, scopeCol{name: name})
		if _, dup := postCols[text]; !dup {
			postCols[text] = name
		}
	}

	// Compile group-by expressions and aggregate arguments against
	// the input scope.
	scan := aggScanSpec{filter: filter, groups: make([]vecExpr, len(sel.GroupBy))}
	for i, g := range sel.GroupBy {
		if sqlparser.ContainsAggregate(g) {
			return fmt.Errorf("hive: aggregates are not allowed in GROUP BY")
		}
		if scan.groups[i].prog, err = e.compileVexpr(ec, g, rel.sc); err != nil {
			return err
		}
		addPostCol(g.String(), fmt.Sprintf("__grp%d", i))
	}

	// Collect the aggregate calls of the items, HAVING and ORDER BY.
	var aggs []aggSpec
	collect := func(x sqlparser.Expr) {
		sqlparser.WalkExpr(x, func(n sqlparser.Expr) bool {
			if _, ok := n.(*sqlparser.SubqueryExpr); ok {
				return false
			}
			if fc, ok := n.(*sqlparser.FuncCall); ok && sqlparser.IsAggregateFunc(fc.Name) {
				if _, seen := postCols[fc.String()]; !seen {
					addPostCol(fc.String(), fmt.Sprintf("__agg%d", len(aggs)))
					aggs = append(aggs, aggSpec{call: fc, distinct: fc.Distinct, star: fc.Star})
				}
				return false
			}
			return true
		})
	}
	for _, x := range q.items {
		collect(x)
	}
	collect(sel.Having)
	for _, k := range q.order {
		collect(k.expr)
	}
	// DISTINCT aggregates cannot be combined map-side; they ship raw
	// argument values. Everything else shuffles partial aggregates
	// and runs a combiner (Hive's map-side aggregation).
	scan.aggs, scan.args = aggs, make([]vecExpr, len(aggs))
	anyDistinct := false
	for i, a := range aggs {
		anyDistinct = anyDistinct || a.distinct
		if a.star {
			continue
		}
		if len(a.call.Args) != 1 {
			return fmt.Errorf("hive: %s expects one argument", a.call.Name)
		}
		if scan.args[i].prog, err = e.compileVexpr(ec, a.call.Args[0], rel.sc); err != nil {
			return err
		}
	}
	if anyDistinct {
		p.job = e.rawAggJob(rel, scan)
	} else {
		p.job = e.partialAggJob(rel, scan)
	}
	// Global aggregation over an empty input still yields one row.
	if len(sel.GroupBy) == 0 {
		p.emptyRow = make(datum.Row, len(aggs))
		for i := range aggs {
			p.emptyRow[i] = finalizePartial(aggs[i].call.Name, zeroPartial[:])
		}
	}

	// HAVING, the select list and the order keys, over the reduced row.
	// Top-N stays off: the tail must see every HAVING survivor (its
	// sort charge counts them).
	rewrite := func(x sqlparser.Expr) sqlparser.Expr { return rewritePostAgg(x, postCols) }
	pq := scanQuery{where: rewrite(sel.Having), items: make([]sqlparser.Expr, len(q.items)), order: slices.Clone(q.order)}
	for i, x := range q.items {
		pq.items[i] = rewrite(x)
	}
	for i := range pq.order {
		pq.order[i].expr = rewrite(pq.order[i].expr)
	}
	if p.post, err = e.planSimpleScan(ec, pq, post); err != nil {
		return fmt.Errorf("%w (not in GROUP BY?)", err)
	}
	return nil
}

// rewritePostAgg replaces group-by expressions and aggregate calls
// with references into the reduced row (__grpN / __aggN).
func rewritePostAgg(x sqlparser.Expr, postCols map[string]string) sqlparser.Expr {
	if x == nil {
		return nil
	}
	if name, ok := postCols[x.String()]; ok {
		return &sqlparser.ColumnRef{Name: name}
	}
	return sqlparser.MapChildren(x, func(c sqlparser.Expr) sqlparser.Expr { return rewritePostAgg(c, postCols) })
}

// ---- Aggregation jobs ----
//
// Partial-aggregate layout: each aggregate occupies aggPartialWidth
// datums in the shuffled row:
//
//	[count BIGINT, sum DOUBLE, sumInt BIGINT, intOnly BOOLEAN, min, max]
const aggPartialWidth = 6

// zeroPartial is the segment no value has been folded into.
var zeroPartial = [aggPartialWidth]datum.Datum{datum.Int(0), datum.Float(0), datum.Int(0), datum.Bool(true), datum.Null, datum.Null}

// updatePartial folds one argument value into a partial segment in
// place. NULL arguments are no-ops. It is the one fold: the map-side
// hash aggregation calls it per record and the DISTINCT reducer per
// distinct value, so plain and DISTINCT aggregates cannot disagree.
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
	if v.Nulls[i] {
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
// group keys and aggregate arguments (a nil program for COUNT(*)).
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
// and arguments are read from their programs' vectors.
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
func (m *aggScanMapper) emitRaw(i int, emit mapred.Emitter) error {
	nGroup := len(m.groups)
	out := make(datum.Row, 0, nGroup+len(m.aggs))
	for gi := range m.groups {
		out = append(out, m.groups[gi].res.Datum(i))
	}
	for ai := range m.aggs {
		if m.aggs[ai].star {
			out = append(out, datum.Bool(true))
		} else {
			out = append(out, m.args[ai].res.Datum(i))
		}
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
			acc = append(acc, zeroPartial[:]...)
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
func (m *aggScanMapper) foldPartial(i int, emit mapred.Emitter) error {
	nGroup := len(m.groups)
	if cap(m.groupRw) < nGroup {
		m.groupRw = make(datum.Row, nGroup)
	}
	grp := m.groupRw[:nGroup]
	for gi := range m.groups {
		grp[gi] = m.groups[gi].res.Datum(i)
	}
	acc, err := m.accFor(grp, emit)
	if err != nil {
		return err
	}
	for ai := range m.aggs {
		seg := acc[nGroup+ai*aggPartialWidth:]
		if m.aggs[ai].star {
			updatePartial(seg, datum.Bool(true))
		} else {
			updatePartialVec(seg, m.args[ai].res, i)
		}
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

func (m *aggScanMapper) Close() error { return releaseRegisters(&m.filter, m.groups, m.args) }

func (m *aggScanMapper) MapBatch(b *mapred.RecordBatch, emit mapred.Emitter) error {
	sel, err := m.filter.begin(b)
	if err != nil || len(sel) == 0 {
		return err
	}
	if err := beginBatchAll(m.groups, b, sel); err != nil {
		return err
	}
	if err := beginBatchAll(m.args, b, sel); err != nil {
		return err
	}
	for _, i := range sel {
		if m.partial {
			err = m.foldPartial(int(i), emit)
		} else {
			err = m.emitRaw(int(i), emit)
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

// rawAggJob ships raw argument values (needed by DISTINCT): the reducer
// sees every value of a group and folds each aggregate through the same
// updatePartial + finalizePartial as the partial path, a DISTINCT one
// skipping the values it has already folded.
func (e *Engine) rawAggJob(rel *relation, scan aggScanSpec) *mapred.Job {
	aggs := scan.aggs
	nGroup := len(scan.groups)
	return &mapred.Job{
		Name:   "groupby-distinct",
		Splits: rel.splits,
		NewMapper: func() mapred.Mapper {
			return &aggScanMapper{aggScanSpec: scan.cloneForMapper()}
		},
		NewReducer: func() mapred.Reducer {
			return mapred.ReduceFunc(func(_ []byte, rows []datum.Row, emit mapred.Emitter) error {
				out := make(datum.Row, 0, nGroup+len(aggs))
				out = append(out, rows[0][:nGroup]...)
				for i := range aggs {
					var seen map[string]bool
					if aggs[i].distinct {
						seen = map[string]bool{}
					}
					seg := zeroPartial
					for _, r := range rows {
						d := r[nGroup+i]
						if seen != nil {
							key := string(datum.SortableKey(nil, d))
							if seen[key] {
								continue
							}
							seen[key] = true
						}
						updatePartial(seg[:], d)
					}
					out = append(out, finalizePartial(aggs[i].call.Name, seg[:]))
				}
				return emit(nil, out)
			})
		},
	}
}
