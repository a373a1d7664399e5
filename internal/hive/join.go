package hive

import (
	"fmt"
	"slices"
	"strings"

	"dualtable/internal/datum"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// A FROM clause is planned before anything runs. resolveFrom turns it
// into a tree of fromNodes that knows every source's columns; push then
// walks the tree once, top down, and tells every node which conjuncts
// its consumer filters its rows by and which of its columns the consumer
// still needs after that. A base table therefore reads only the columns
// somebody uses and prunes stripes by the conjuncts that reached it, and
// a join shuffles only the rows and columns that survive — the same
// filter → project step a single-table SELECT runs, as the join's map
// phase.
//
// The pushdown rules, which are the whole correctness surface:
//
//   - A WHERE conjunct sinks into a join input only if it references that
//     input alone, holds no subquery or aggregate, and the input is not
//     the null-supplying side of the join (INNER and CROSS: either side;
//     LEFT: the left; RIGHT: the right; FULL: neither). A filter below an
//     outer join would turn the rows it drops into null-extended ones.
//   - An ON conjunct over one input sinks into it for an INNER join, and
//     for LEFT/RIGHT only into the null-supplying side: an unmatched row
//     of the preserved side must still come out, null-extended.
//   - Everything else stays exactly where it was written.

// fromNode is one source of a FROM tree: a base table, a derived table
// or a join of two sources.
type fromNode struct {
	sc    *scope   // every column the source exposes, before any narrowing
	names []string // output names aligned with sc.cols

	table       *sqlparser.TableName // base table, with desc
	desc        *metastore.TableDesc
	derived     *sqlparser.SubqueryRef // derived table
	join        *sqlparser.JoinRef     // join, with left and right
	left, right *fromNode

	// Set by push. where are the conjuncts the consumer of this source
	// filters its rows by; need is everything the consumer evaluates over
	// the rows that pass. A base table is scanned with proj, the columns
	// where and need mention (nil = all).
	where, need []sqlparser.Expr
	proj        []int

	// A join's unpushed ON conjuncts: equalities between an expression
	// over each input become the shuffle key (keysL[i] = keysR[i]), the
	// rest is evaluated per candidate pair.
	keysL, keysR []sqlparser.Expr
	residual     []sqlparser.Expr
}

// resolveFrom resolves a FROM clause into its tree without running
// anything: a derived table's columns are its SELECT's output names.
func (e *Engine) resolveFrom(ref sqlparser.TableRef) (*fromNode, error) {
	switch t := ref.(type) {
	case *sqlparser.TableName:
		desc, err := e.MS.Get(t.Name)
		if err != nil {
			return nil, err
		}
		alias := t.Alias
		if alias == "" {
			alias = t.Name
		}
		return &fromNode{sc: newScope(alias, desc.Schema), names: desc.Schema.Names(), table: t, desc: desc}, nil
	case *sqlparser.SubqueryRef:
		items := t.Select.Items
		if t.Select.From != nil {
			inner, err := e.resolveFrom(t.Select.From)
			if err != nil {
				return nil, err
			}
			if items, err = expandStars(items, inner.sc, inner.names); err != nil {
				return nil, err
			}
		}
		n := &fromNode{sc: &scope{}, derived: t}
		q := strings.ToLower(t.Alias)
		for i, it := range items {
			name := outputName(it, i)
			n.names = append(n.names, name)
			n.sc.cols = append(n.sc.cols, scopeCol{qual: q, name: strings.ToLower(name)})
		}
		return n, nil
	case *sqlparser.JoinRef:
		left, err := e.resolveFrom(t.Left)
		if err != nil {
			return nil, err
		}
		right, err := e.resolveFrom(t.Right)
		if err != nil {
			return nil, err
		}
		return &fromNode{sc: left.sc.concat(right.sc), names: slices.Concat(left.names, right.names),
			join: t, left: left, right: right}, nil
	default:
		return nil, fmt.Errorf("hive: unsupported FROM clause %T", ref)
	}
}

// push plans the node for a consumer that filters its rows by where —
// conjuncts over this node's columns alone — and then evaluates need.
// In a join the conjuncts sink towards the inputs as far as the rules
// above allow; what cannot sink stays in n.where for the consumer.
func (n *fromNode) push(where, need []sqlparser.Expr) {
	n.need = need
	if n.join == nil {
		n.where = where
		if n.table != nil {
			n.proj = referencedColumns(slices.Concat(need, where), n.sc)
		}
		return
	}
	typ := n.join.Type
	intoLeft := typ != sqlparser.JoinRight && typ != sqlparser.JoinFull
	intoRight := typ != sqlparser.JoinLeft && typ != sqlparser.JoinFull
	var toLeft, toRight []sqlparser.Expr
	for _, c := range where {
		switch in := n.inputOf(c); {
		case in == n.left && intoLeft:
			toLeft = append(toLeft, c)
		case in == n.right && intoRight:
			toRight = append(toRight, c)
		default:
			n.where = append(n.where, c)
		}
	}
	// ON filters candidate pairs, not output rows: it may drop rows of the
	// null-supplying side only — for an inner join, of either.
	inner := typ == sqlparser.JoinInner
	var on []sqlparser.Expr
	for _, c := range sqlparser.SplitConjuncts(n.join.On) {
		switch in := n.inputOf(c); {
		case in == n.left && (inner || typ == sqlparser.JoinRight):
			toLeft = append(toLeft, c)
		case in == n.right && (inner || typ == sqlparser.JoinLeft):
			toRight = append(toRight, c)
		default:
			on = append(on, c)
		}
	}
	// l = r with one side over each input, either way round, is a key.
	for _, c := range on {
		if bin, ok := c.(*sqlparser.BinaryExpr); ok && bin.Op == "=" {
			l, r := bin.L, bin.R
			if !refsResolveIn(l, n.left.sc) || !refsResolveIn(r, n.right.sc) {
				l, r = r, l
			}
			if refsResolveIn(l, n.left.sc) && refsResolveIn(r, n.right.sc) {
				n.keysL, n.keysR = append(n.keysL, l), append(n.keysR, r)
				continue
			}
		}
		n.residual = append(n.residual, c)
	}
	below := slices.Concat(need, n.where, on)
	n.left.push(toLeft, below)
	n.right.push(toRight, below)
}

// inputOf returns the input of the join a conjunct may sink into: the
// one all of its column references name, none of them naming a column of
// the other. Nil for a conjunct over both inputs or neither, or holding
// a subquery or an aggregate.
func (n *fromNode) inputOf(c sqlparser.Expr) *fromNode {
	if sqlparser.ContainsSubquery(c) || sqlparser.ContainsAggregate(c) {
		return nil
	}
	var in *fromNode
	for _, ref := range sqlparser.ColumnRefs(c) {
		l, r := len(n.left.sc.matches(ref)) > 0, len(n.right.sc.matches(ref)) > 0
		if l == r {
			return nil
		}
		side := n.left
		if r {
			side = n.right
		}
		if in != nil && in != side {
			return nil
		}
		in = side
	}
	return in
}

// buildRelation turns a planned source into the relation its consumer
// scans, running the jobs a derived table or a join needs (charged to
// ledger). The caller owns the relation: it must Release it.
func (e *Engine) buildRelation(ec *ExecContext, n *fromNode, ledger *sim.Ledger) (*relation, error) {
	switch {
	case n.table != nil:
		return e.buildTableScan(ec, n)
	case n.derived != nil:
		rs, err := e.runSelect(ec, n.derived.Select, ledger)
		if err != nil {
			return nil, err
		}
		// Kinds are known only now; nothing has compiled against the
		// scope yet.
		for i, k := range inferKinds(rs) {
			n.sc.cols[i].kind = k
		}
		return materialized(n.sc, n.names, rs.Rows), nil
	default:
		return e.runJoin(ec, n, ledger)
	}
}

// joinInput is one input of a join as its map phase runs it: a scan
// plan whose filter holds the conjuncts pushed to the input, whose
// projections are the columns still needed above it and whose hidden
// order keys are the join keys.
type joinInput struct {
	scan  *simpleScanPlan
	sc    *scope // the projected columns
	names []string
	// preserved: the join emits this input's unmatched rows, so a row
	// whose key is NULL — it matches nothing — still has to reach the
	// reducer. From the other input such a row is dropped in the mapper.
	preserved bool
}

// narrowed returns the scope and names of the given columns alone.
func narrowed(sc *scope, names []string, cols []int) (*scope, []string) {
	out, outNames := &scope{cols: make([]scopeCol, len(cols))}, make([]string, len(cols))
	for i, c := range cols {
		out.cols[i], outNames[i] = sc.cols[c], names[c]
	}
	return out, outNames
}

// planJoinInput compiles one input of a join over its relation.
func (e *Engine) planJoinInput(ec *ExecContext, n *fromNode, rel *relation, keys []sqlparser.Expr, preserved bool) (*joinInput, error) {
	in := &joinInput{preserved: preserved}
	in.sc, in.names = narrowed(rel.sc, rel.names, referencedColumns(n.need, rel.sc))
	q := scanQuery{where: sqlparser.CombineConjuncts(n.where)}
	for _, col := range in.sc.cols {
		q.items = append(q.items, &sqlparser.ColumnRef{Table: col.qual, Name: col.name})
	}
	for _, k := range keys {
		q.order = append(q.order, orderKey{item: -1, expr: k})
	}
	var err error
	in.scan, err = e.planSimpleScan(ec, q, rel.sc)
	return in, err
}

// runJoin runs a join as one reduce-side equi-join job over both
// inputs' splits and returns its output, narrowed to the columns the
// join's consumer filters by or needs.
func (e *Engine) runJoin(ec *ExecContext, n *fromNode, ledger *sim.Ledger) (*relation, error) {
	leftRel, err := e.buildRelation(ec, n.left, ledger)
	if err != nil {
		return nil, err
	}
	defer leftRel.Release()
	rightRel, err := e.buildRelation(ec, n.right, ledger)
	if err != nil {
		return nil, err
	}
	defer rightRel.Release()
	typ := n.join.Type
	left, err := e.planJoinInput(ec, n.left, leftRel, n.keysL, typ == sqlparser.JoinLeft || typ == sqlparser.JoinFull)
	if err != nil {
		return nil, err
	}
	right, err := e.planJoinInput(ec, n.right, rightRel, n.keysR, typ == sqlparser.JoinRight || typ == sqlparser.JoinFull)
	if err != nil {
		return nil, err
	}
	pairSc := left.sc.concat(right.sc)
	var residual evalFn
	if len(n.residual) > 0 {
		if residual, err = e.compileExpr(ec, sqlparser.CombineConjuncts(n.residual), pairSc); err != nil {
			return nil, err
		}
	}
	// The ON columns end here; the output carries what is used above.
	outCols := referencedColumns(slices.Concat(n.need, n.where), pairSc)

	inputs := [2]*joinInput{left, right}
	job := &mapred.Job{
		Name:      "join",
		Splits:    slices.Concat(leftRel.splits, rightRel.splits),
		Tags:      make([]int, len(leftRel.splits)+len(rightRel.splits)),
		NewMapper: func() mapred.Mapper { return &joinMapper{inputs: inputs} },
		NewReducer: func() mapred.Reducer {
			return &joinReducer{leftWidth: len(left.sc.cols), pair: make(datum.Row, len(pairSc.cols)),
				residual: residual, outCols: outCols, keepLeft: left.preserved, keepRight: right.preserved}
		},
	}
	for i := len(leftRel.splits); i < len(job.Tags); i++ {
		job.Tags[i] = 1
	}
	res, err := e.MR.RunContext(ec.Context(), job)
	if err != nil {
		return nil, err
	}
	ledger.Add(res.Counts, res.SimSeconds)
	out, outNames := narrowed(pairSc, slices.Concat(left.names, right.names), outCols)
	return materialized(out, outNames, res.Rows), nil
}

// joinMapper is the map side of a join: one input's filter → project
// step, emitting each surviving row, narrowed, under its join key. A
// task reads one split and so one input, named by the batch tag. Key
// buffer and row are the task's own and reused — a shuffle emit copies
// both — so the map phase allocates nothing per row.
type joinMapper struct {
	inputs [2]*joinInput

	filter    scanFilter
	cols      []vecExpr
	keys      []vecExpr
	preserved bool
	row       datum.Row // the narrowed row, then the input's tag
	keyRow    datum.Row
	keyBuf    []byte
	nullSeq   int64
}

func (m *joinMapper) Flush(mapred.Emitter) error { return nil }

func (m *joinMapper) Close() error { return releaseRegisters(&m.filter, m.cols, m.keys) }

func (m *joinMapper) MapBatch(b *mapred.RecordBatch, emit mapred.Emitter) error {
	if m.row == nil {
		in := m.inputs[b.Tag]
		m.filter, m.cols, m.keys = in.scan.filter, slices.Clone(in.scan.projs), slices.Clone(in.scan.orders)
		m.preserved = in.preserved
		m.row = make(datum.Row, len(m.cols)+1)
		m.row[len(m.cols)] = datum.Int(int64(b.Tag))
		m.keyRow = make(datum.Row, len(m.keys))
	}
	sel, err := m.filter.begin(b)
	if err != nil || len(sel) == 0 {
		return err
	}
	if err := beginBatchAll(m.cols, b, sel); err != nil {
		return err
	}
	if err := beginBatchAll(m.keys, b, sel); err != nil {
		return err
	}
	for _, i := range sel {
		hasNull := false
		for ki := range m.keys {
			m.keyRow[ki] = m.keys[ki].res.Datum(int(i))
			hasNull = hasNull || m.keyRow[ki].IsNull()
		}
		switch {
		case len(m.keys) == 0:
			m.keyBuf = append(m.keyBuf[:0], 0x01) // cartesian: single group
		case !hasNull:
			m.keyBuf = datum.SortableRowKey(append(m.keyBuf[:0], 0x01), m.keyRow)
		case m.preserved:
			// A NULL key matches nothing: a group of its own.
			m.nullSeq++
			m.keyBuf = datum.SortableKey(append(m.keyBuf[:0], 0x00, byte(b.Tag)), datum.Int(m.nullSeq))
		default:
			continue
		}
		for ci := range m.cols {
			m.row[ci] = m.cols[ci].res.Datum(int(i))
		}
		if err := emit(m.keyBuf, m.row); err != nil {
			return err
		}
	}
	return nil
}

// joinReducer joins one key group: every left row with every right row
// that passes the residual ON, then the unmatched rows of a preserved
// input, null-extended. Candidate pairs are assembled in one scratch
// row; a row is allocated only for a pair that is emitted, and holds
// only the output columns.
type joinReducer struct {
	leftWidth           int
	pair                datum.Row
	residual            evalFn
	outCols             []int
	keepLeft, keepRight bool

	lefts, rights             []datum.Row
	leftMatched, rightMatched []bool
}

func (r *joinReducer) Flush(mapred.Emitter) error { return nil }

func (r *joinReducer) emitPair(emit mapred.Emitter) error {
	out := make(datum.Row, len(r.outCols))
	for i, c := range r.outCols {
		out[i] = r.pair[c]
	}
	return emit(nil, out)
}

func (r *joinReducer) Reduce(_ []byte, rows []datum.Row, emit mapred.Emitter) error {
	r.lefts, r.rights = r.lefts[:0], r.rights[:0]
	for _, row := range rows {
		data, tag := row[:len(row)-1], row[len(row)-1].I
		if tag == 0 {
			r.lefts = append(r.lefts, data)
		} else {
			r.rights = append(r.rights, data)
		}
	}
	r.leftMatched = append(r.leftMatched[:0], make([]bool, len(r.lefts))...)
	r.rightMatched = append(r.rightMatched[:0], make([]bool, len(r.rights))...)
	for li, l := range r.lefts {
		copy(r.pair, l)
		for ri, right := range r.rights {
			copy(r.pair[r.leftWidth:], right)
			if r.residual != nil {
				ok, err := r.residual(r.pair)
				if err != nil {
					return err
				}
				if !ok.Truthy() {
					continue
				}
			}
			r.leftMatched[li], r.rightMatched[ri] = true, true
			if err := r.emitPair(emit); err != nil {
				return err
			}
		}
	}
	if r.keepLeft {
		clear(r.pair[r.leftWidth:])
		for li, l := range r.lefts {
			if !r.leftMatched[li] {
				copy(r.pair, l)
				if err := r.emitPair(emit); err != nil {
					return err
				}
			}
		}
	}
	if r.keepRight {
		clear(r.pair[:r.leftWidth])
		for ri, right := range r.rights {
			if !r.rightMatched[ri] {
				copy(r.pair[r.leftWidth:], right)
				if err := r.emitPair(emit); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// describe renders the planned tree for EXPLAIN: per join its keys and
// the ON conjuncts evaluated per pair, per input the columns it is
// scanned with, the conjuncts pushed to it and the SearchArg they make.
func (n *fromNode) describe(add func(...string), indent string) {
	if n.join != nil {
		keys := make([]sqlparser.Expr, len(n.keysL))
		for i := range keys {
			keys[i] = &sqlparser.BinaryExpr{Op: "=", L: n.keysL[i], R: n.keysR[i]}
		}
		add(fmt.Sprintf("%s%s (shuffle): keys %s; residual ON %s", indent, n.join.Type, exprList(keys), exprList(n.residual)))
		n.left.describe(add, indent+"  ")
		n.right.describe(add, indent+"  ")
		return
	}
	if n.derived != nil {
		add(fmt.Sprintf("%sinput (subquery) %s: pushed %s", indent, n.derived.Alias, exprList(n.where)))
		return
	}
	cols := "all columns"
	if n.proj != nil {
		names := make([]string, len(n.proj))
		for i, c := range n.proj {
			names[i] = n.names[c]
		}
		cols = "project [" + strings.Join(names, ", ") + "]"
	}
	var preds []string
	if sarg := extractSArg(n.where, n.sc, n.desc.Schema); sarg != nil {
		for _, p := range sarg.Predicates {
			preds = append(preds, fmt.Sprintf("%s %s %s", n.names[p.Column], p.Op, p.Value.SQLLiteral()))
		}
	}
	add(fmt.Sprintf("%sinput %s: %s; pushed %s; searcharg [%s]", indent, n.table, cols, exprList(n.where), strings.Join(preds, " AND ")))
}

// exprList renders conjuncts for EXPLAIN; "[]" is none.
func exprList(xs []sqlparser.Expr) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = x.String()
	}
	return "[" + strings.Join(s, " AND ") + "]"
}
