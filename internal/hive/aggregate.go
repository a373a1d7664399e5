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
// place. NULL arguments are no-ops. It is the one fold of record: the
// DISTINCT reducer calls it per distinct value, and the map-side hash
// aggregation's typed state (partialAcc) is its exact transcription,
// falling back to it for any value off the typed path, so plain and
// DISTINCT aggregates cannot disagree.
func updatePartial(p datum.Row, d datum.Datum) {
	if d.IsNull() {
		return
	}
	p[0].I++
	intOnly := d.K == datum.KindInt
	if f, ok := d.AsFloat(); ok {
		p[1].F = addSum(p[1].F, f)
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

// accKind is the state of one (group slot, aggregate) accumulator.
type accKind uint8

const (
	accEmpty accKind = iota // no value folded yet
	accInt                  // only BIGINT values: typed count, sums, min, max
	accFloat                // only DOUBLE values: typed count, sum, min, max
	accDatum                // anything else: the six-Datum segment in seg
)

// partialAcc is one (group slot, aggregate) accumulator of the map-side
// hash aggregation: updatePartial's segment held as typed fields while
// every value folded into it is a BIGINT, or every one a DOUBLE. The
// first value of a second kind, or of a non-numeric kind, moves it to
// the segment itself, which updatePartial folds from then on. Either way
// appendPartial writes the segment updatePartial would have built.
type partialAcc struct {
	kind       accKind
	count      int64
	sum        float64
	sumInt     int64
	minI, maxI int64
	minF, maxF float64
	seg        datum.Row // accDatum only
}

func (a *partialAcc) addInt(x int64) {
	switch a.kind {
	case accInt:
		a.minI = min(a.minI, x)
		a.maxI = max(a.maxI, x)
	case accEmpty:
		a.kind, a.minI, a.maxI = accInt, x, x
	default:
		updatePartial(a.segment(), datum.Int(x))
		return
	}
	a.count++
	a.sum = addSum(a.sum, float64(x))
	a.sumInt += x
}

// addFloat keeps updatePartial's min/max: replace only on a strict
// comparison, so a NaN never displaces a value, a NaN folded first is
// never displaced, and of ±0 the first seen stays.
func (a *partialAcc) addFloat(f float64) {
	switch a.kind {
	case accFloat:
		if f < a.minF {
			a.minF = f
		}
		if f > a.maxF {
			a.maxF = f
		}
	case accEmpty:
		a.kind, a.minF, a.maxF = accFloat, f, f
	default:
		updatePartial(a.segment(), datum.Float(f))
		return
	}
	a.count++
	a.sum = addSum(a.sum, f)
}

// addSum is the one addition a partial's sum makes, in updatePartial
// and in partialAcc's typed folds alike, so the two cannot disagree
// (TestPartialFoldMatchesRow compares their sums bit for bit). Of two
// NaN operands an addition keeps one operand's payload, and which one
// the hardware keeps (amd64: the destination register's) is left to the
// compiler at each site; the sums have always kept the folded value's,
// so a NaN f wins here explicitly, quieted as the addition would.
func addSum(sum, f float64) float64 {
	if f != f {
		return f + f
	}
	return sum + f
}

// segment moves the accumulator to its six-Datum segment and returns it.
func (a *partialAcc) segment() datum.Row {
	if a.kind != accDatum {
		a.seg = a.appendPartial(make(datum.Row, 0, aggPartialWidth))
		a.kind = accDatum
	}
	return a.seg
}

// appendPartial appends the accumulator's partial segment to row.
func (a *partialAcc) appendPartial(row datum.Row) datum.Row {
	switch a.kind {
	case accInt:
		return append(row, datum.Int(a.count), datum.Float(a.sum), datum.Int(a.sumInt), datum.Bool(true),
			datum.Int(a.minI), datum.Int(a.maxI))
	case accFloat:
		return append(row, datum.Int(a.count), datum.Float(a.sum), datum.Int(0), datum.Bool(false),
			datum.Float(a.minF), datum.Float(a.maxF))
	case accDatum:
		return append(row, a.seg...)
	default:
		return append(row, zeroPartial[:]...)
	}
}

// appendStarPartial appends the segment updatePartial builds by folding
// TRUE n ≥ 1 times — COUNT(*)'s, whose accumulator is a plain counter
// (partialAcc.count alone) that every row of its slot increments.
func appendStarPartial(row datum.Row, n int64) datum.Row {
	t := datum.Bool(true)
	return append(row, datum.Int(n), datum.Float(float64(n)), datum.Int(0), datum.Bool(false), t, t)
}

// aggScanMapper is the scan side of an aggregation. In partial mode
// (everything but DISTINCT) it hash-aggregates map-side, Hive's
// hive.map.aggr: a batch's selected rows first resolve to group slots
// in one pass, then each aggregate folds its whole argument vector into
// the slots' typed accumulators in one loop per vector kind, and Flush
// emits one partial row per group. In raw mode (DISTINCT) it emits the
// argument values per record. Group keys and arguments are read from
// their programs' vectors.
type aggScanMapper struct {
	aggScanSpec
	partial bool
	keyBuf  []byte

	// The partial mode's hash table. Slots number the groups in
	// first-seen order, the order Flush emits them in.
	slotOf  map[string]int32 // group key → slot
	keys    []string         // slot → group key
	grpVals []datum.Datum    // slot s's group values: [s*len(groups), (s+1)*len(groups))
	accs    [][]partialAcc   // per aggregate, per slot (COUNT(*) uses count only)
	slots   []int32          // slot of each selected row of the current batch
	out     datum.Row        // Flush's row buffer (the shuffle copies it)
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

// resolveSlots fills m.slots with the group slot of each selected row,
// adding a slot for each new group. It stops before a new group the
// full table cannot take and returns how many rows it resolved. With no
// GROUP BY column there is one group, slot 0, and no key to look up.
func (m *aggScanMapper) resolveSlots(sel []int32) int {
	if m.slotOf == nil {
		m.slotOf = make(map[string]int32)
		m.accs = make([][]partialAcc, len(m.aggs))
	}
	if cap(m.slots) < len(sel) {
		m.slots = make([]int32, len(sel))
	}
	slots := m.slots[:len(sel)]
	if len(m.groups) == 0 {
		if len(m.keys) == 0 {
			m.addSlot("", 0)
		}
		clear(slots)
		return len(sel)
	}
	for k, i := range sel {
		key := m.keyBuf[:0]
		for gi := range m.groups {
			key = m.groups[gi].res.SortableKey(key, int(i))
		}
		m.keyBuf = key
		s, ok := m.slotOf[string(key)]
		if !ok {
			if len(m.keys) >= maxHashGroups && len(m.keys) > 0 {
				return k
			}
			s = m.addSlot(string(key), i)
		}
		slots[k] = s
	}
	return len(sel)
}

// addSlot adds the group of row i, keyed key, as the next slot.
func (m *aggScanMapper) addSlot(key string, i int32) int32 {
	s := int32(len(m.keys))
	m.slotOf[key] = s
	m.keys = append(m.keys, key)
	for gi := range m.groups {
		m.grpVals = append(m.grpVals, m.groups[gi].res.Datum(int(i)))
	}
	for ai := range m.accs {
		m.accs[ai] = append(m.accs[ai], partialAcc{})
	}
	return s
}

// foldAggs folds each aggregate's argument at the selected rows into
// the accumulators of the slots resolveSlots gave them, one aggregate
// and one loop at a time. Each slot still sees its rows in batch order,
// so float sums add in the order updatePartial would.
func (m *aggScanMapper) foldAggs(sel []int32) {
	slots := m.slots[:len(sel)]
	for ai := range m.aggs {
		accs := m.accs[ai]
		if m.aggs[ai].star {
			for _, s := range slots {
				accs[s].count++
			}
			continue
		}
		v := m.args[ai].res
		switch v.Kind {
		case datum.KindInt:
			for k, i := range sel {
				if !v.Nulls[i] {
					accs[slots[k]].addInt(v.Ints[i])
				}
			}
		case datum.KindFloat:
			for k, i := range sel {
				if !v.Nulls[i] {
					accs[slots[k]].addFloat(v.Floats[i])
				}
			}
		default:
			for k, i := range sel {
				if !v.Nulls[i] {
					updatePartial(accs[slots[k]].segment(), v.Datum(int(i)))
				}
			}
		}
	}
}

// FlushRecords is the number of partial rows Flush would emit now.
func (m *aggScanMapper) FlushRecords() int { return len(m.keys) }

// Flush emits the hash-aggregated partial groups in first-seen order
// and resets the table.
func (m *aggScanMapper) Flush(emit mapred.Emitter) error {
	nGroup := len(m.groups)
	for s, key := range m.keys {
		row := append(m.out[:0], m.grpVals[s*nGroup:(s+1)*nGroup]...)
		for ai := range m.aggs {
			if m.aggs[ai].star {
				row = appendStarPartial(row, m.accs[ai][s].count)
			} else {
				row = m.accs[ai][s].appendPartial(row)
			}
		}
		m.out = row
		m.keyBuf = append(m.keyBuf[:0], key...)
		if err := emit(m.keyBuf, row); err != nil {
			return err
		}
	}
	clear(m.slotOf)
	m.keys = m.keys[:0]
	m.grpVals = m.grpVals[:0]
	for ai := range m.accs {
		m.accs[ai] = m.accs[ai][:0]
	}
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
	if !m.partial {
		for _, i := range sel {
			if err := m.emitRaw(int(i), emit); err != nil {
				return err
			}
		}
		return nil
	}
	// A table that fills mid-batch flushes at the record that overflows
	// it, as a record-at-a-time fold would: fold the rows before it,
	// flush, and go on from it.
	for {
		n := m.resolveSlots(sel)
		m.foldAggs(sel[:n])
		if n == len(sel) {
			return nil
		}
		if err := m.Flush(emit); err != nil {
			return err
		}
		sel = sel[n:]
	}
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
