package hive

import (
	"math"
	"slices"

	"dualtable/internal/datum"
	"dualtable/internal/freelist"
	"dualtable/internal/mapred"
	"dualtable/internal/sqlparser"
)

// This file holds the expression compiler every scan-side expression
// goes through — WHERE conjuncts, projections, ORDER BY and GROUP BY
// keys, aggregate arguments, join keys and columns, DML SET values, and
// HAVING plus the items over an aggregation's reduced rows. Each
// compiles to exactly one program: a small register machine in which
// every instruction writes one register (a ColumnVector) with one loop
// over the batch's selected slots, and column operands alias the batch's
// vectors (zero copy).
//
// Typed instructions cover arithmetic (+ - * / %), unary minus and NOT,
// comparisons, AND/OR, CASE WHEN and IF over the scope's static kinds. A
// subtree they cannot prove row-equivalent — IN, LIKE, BETWEEN, IS NULL,
// CAST, functions, string coercion, cross-kind comparisons, scope
// columns of unknown kind — becomes one adaptor instruction: it runs the
// subtree's row closure (compile.go) at the batch's selected slots only,
// into a register that turns mixed where the values demand it. An
// adaptor over a predicate is statically BOOLEAN, so typed
// AND/OR/NOT/CASE consume it.
//
// Three rules keep a program's value equal to its row closure's:
//  1. An expression holding a subquery is one adaptor over the whole
//     expression, so its lazily run, metered subquery runs exactly when
//     the row evaluation's would.
//  2. A batch whose column contradicts the kind a typed instruction was
//     compiled for (a mixed column) runs the whole expression's closure
//     over the selection instead — the one branch, in evalBatch.
//  3. Under Cluster.DisableBatchScan every program is that one
//     whole-expression adaptor: row evaluation stays an independent
//     oracle, and no consumer differs between the two modes.
//
// Programs are immutable and shared across map tasks; all mutable state
// lives in a per-mapper vexprState. Per-row semantics mirror compile.go
// exactly: SQL three-valued logic, int+int staying int with Go
// wrap-around (except "/"), division/modulo by zero yielding NULL, and
// datum.Compare ordering for comparisons.

type vop uint8

const (
	vopCol     vop = iota // alias batch column a
	vopConst              // broadcast lit
	vopToFloat            // float-convert int register a
	vopNeg                // arithmetic negate register a
	vopNot                // 3VL NOT of bool register a
	vopArith              // sym over registers a, b (same kind)
	vopCmp                // truth of register a vs register b (or lit when b < 0)
	vopAnd                // 3VL AND of bool registers a, b
	vopOr                 // 3VL OR of bool registers a, b
	vopCase               // first true conds[i] selects thens[i], else els
	vopAdapt              // ad's row closure at the selected slots
)

// kindDynamic is the static kind of a register whose kind only the rows
// tell: an adaptor over a non-predicate, a scope column of unknown kind.
// No typed instruction reads one.
const kindDynamic datum.Kind = 255

// vinst is one instruction. It writes register r, its own index in the
// program.
type vinst struct {
	op    vop
	kind  datum.Kind // static kind of the register written
	sym   byte       // vopArith operator
	truth [3]bool    // vopCmp outcome for a <, =, > b (see cmpTruths)
	a, b  int32      // register operands; vopCol: the batch column
	els   int32      // vopCase: else register, -1 = NULL
	lit   datum.Datum
	conds []int32 // vopCase: bool condition registers
	thens []int32 // vopCase: value registers (kind = result kind or NULL)
	ad    *vadaptor
}

// vadaptor is the row-mode body of an adaptor instruction: the subtree,
// its row closure and the columns the closure reads (nil = all).
type vadaptor struct {
	x    sqlparser.Expr
	fn   evalFn
	cols []int
}

// vexprProg is one compiled expression. Immutable.
type vexprProg struct {
	insts []vinst  // register r holds insts[r]'s result; the last is the value
	whole vadaptor // the whole expression, for rules 2 and 3
}

// vexprState is the per-mapper evaluation scratch: one vector per
// register (aliased for vopCol, owned otherwise) and the row adaptors
// read, reused across batches. A map task is short next to the vectors a
// program fills, so a mapper borrows its states from vexprStates at its
// first batch and hands them back at Close (releaseState); a borrowed
// state may have served a program of any other shape, which is fine,
// because every instruction resets the register it writes.
type vexprState struct {
	regs  []*datum.ColumnVector
	store []datum.ColumnVector
	row   datum.Row
}

var vexprStates = freelist.New[vexprState]()

// ---- Compilation ----

// compileVexpr compiles x into its one program. It fails only where x's
// row closure does not compile.
func (e *Engine) compileVexpr(ec *ExecContext, x sqlparser.Expr, sc *scope) (*vexprProg, error) {
	fn, err := e.compileExpr(ec, x, sc)
	if err != nil {
		return nil, err
	}
	p := &vexprProg{whole: vadaptor{x: x, fn: fn}}
	if e.rowOracle() || sqlparser.ContainsSubquery(x) {
		p.insts = []vinst{{op: vopAdapt, kind: adaptorKind(x), ad: &p.whole}}
		return p, nil
	}
	c := vexprCompiler{sc: sc}
	c.compile(x)
	p.insts = c.insts
	for i := range p.insts {
		ad := p.insts[i].ad
		switch {
		case ad == nil:
			continue
		case ad.x == x: // its closure is compiled already
			ad = &p.whole
			p.insts[i].ad = ad
		default:
			if ad.fn, err = e.compileExpr(ec, ad.x, sc); err != nil {
				return nil, err
			}
		}
		ad.cols = referencedColumns([]sqlparser.Expr{ad.x}, sc)
	}
	return p, nil
}

// typed reports whether the program runs without an adaptor.
func (p *vexprProg) typed() bool {
	for i := range p.insts {
		if p.insts[i].op == vopAdapt {
			return false
		}
	}
	return true
}

// adaptorKind is the static kind of an adaptor's register: BOOLEAN over a
// predicate, whose row closure yields only TRUE, FALSE or NULL.
func adaptorKind(x sqlparser.Expr) datum.Kind {
	switch v := x.(type) {
	case *sqlparser.InExpr, *sqlparser.LikeExpr, *sqlparser.BetweenExpr, *sqlparser.IsNullExpr:
		return datum.KindBool
	case *sqlparser.UnaryExpr:
		if v.Op == "NOT" {
			return datum.KindBool
		}
	case *sqlparser.BinaryExpr:
		if _, cmp := cmpTruths[v.Op]; cmp || v.Op == "AND" || v.Op == "OR" {
			return datum.KindBool
		}
	}
	return kindDynamic
}

// vexprCompiler accumulates instructions while walking an expression.
type vexprCompiler struct {
	sc    *scope
	insts []vinst
}

func (c *vexprCompiler) emit(in vinst) (int32, datum.Kind, bool) {
	c.insts = append(c.insts, in)
	return int32(len(c.insts) - 1), in.kind, true
}

// compile returns the register holding x's value and its static kind:
// x's typed instructions when they cover it, else one adaptor over x.
func (c *vexprCompiler) compile(x sqlparser.Expr) (int32, datum.Kind) {
	mark := len(c.insts)
	r, k, ok := c.typed(x)
	if !ok {
		c.insts = c.insts[:mark]
		r, k, _ = c.emit(vinst{op: vopAdapt, kind: adaptorKind(x), ad: &vadaptor{x: x}})
	}
	return r, k
}

func numericKind(k datum.Kind) bool {
	return k == datum.KindInt || k == datum.KindFloat
}

// constReg broadcasts a literal. NULL literals get a KindNull register
// (every read yields NULL).
func (c *vexprCompiler) constReg(d datum.Datum) (int32, datum.Kind, bool) {
	return c.emit(vinst{op: vopConst, kind: d.K, lit: d})
}

// toFloat inserts a conversion when the register is not already float.
// Kinds are restricted to numeric before calling, so the conversion is
// exactly the row path's AsFloat on an int.
func (c *vexprCompiler) toFloat(r int32, k datum.Kind) int32 {
	if k != datum.KindFloat {
		r, _, _ = c.emit(vinst{op: vopToFloat, kind: datum.KindFloat, a: r})
	}
	return r
}

// typed emits x's typed instructions, or reports false when x's own
// operation is not provably row-equivalent over its operands' kinds.
func (c *vexprCompiler) typed(x sqlparser.Expr) (int32, datum.Kind, bool) {
	switch v := x.(type) {
	case *sqlparser.Literal:
		return c.constReg(v.Value)

	case *sqlparser.ColumnRef:
		idx, err := c.sc.resolve(v)
		if err != nil {
			return 0, 0, false
		}
		k := c.sc.cols[idx].kind
		if k == datum.KindNull {
			k = kindDynamic // not known before the rows arrive
		}
		return c.emit(vinst{op: vopCol, kind: k, a: int32(idx)})

	case *sqlparser.UnaryExpr:
		r, k := c.compile(v.X)
		switch {
		case k == datum.KindNull:
			return c.constReg(datum.Null)
		case v.Op == "-" && numericKind(k):
			return c.emit(vinst{op: vopNeg, kind: k, a: r})
		case v.Op == "NOT" && k == datum.KindBool:
			return c.emit(vinst{op: vopNot, kind: k, a: r})
		}

	case *sqlparser.BinaryExpr:
		return c.binary(v)

	case *sqlparser.CaseExpr:
		return c.caseExpr(v)

	case *sqlparser.FuncCall:
		// IF(c, t, f) is exactly CASE WHEN c THEN t ELSE f END.
		if v.Name == "IF" && len(v.Args) == 3 && !v.Star && !v.Distinct {
			return c.caseExpr(&sqlparser.CaseExpr{
				Whens: []sqlparser.WhenClause{{Cond: v.Args[0], Then: v.Args[1]}},
				Else:  v.Args[2],
			})
		}
	}
	return 0, 0, false
}

func (c *vexprCompiler) binary(v *sqlparser.BinaryExpr) (int32, datum.Kind, bool) {
	if _, cmp := cmpTruths[v.Op]; cmp {
		// A literal on the left only: compare the right operand against
		// it with the outcome mirrored, so the literal still fuses.
		x, rhs := v.L, v.R
		_, litL := x.(*sqlparser.Literal)
		_, litR := rhs.(*sqlparser.Literal)
		mirrored := litL && !litR
		if mirrored {
			x, rhs = rhs, x
		}
		a, ak := c.compile(x)
		return c.cmp(v.Op, a, ak, rhs, mirrored)
	}
	l, lk := c.compile(v.L)
	r, rk := c.compile(v.R)
	switch v.Op {
	case "+", "-", "*", "/", "%":
		// NULL op anything is NULL.
		if lk == datum.KindNull || rk == datum.KindNull {
			return c.constReg(datum.Null)
		}
		// Restrict to statically numeric operands: the row path
		// AsFloat-coerces strings and booleans, which a typed loop
		// cannot reproduce without per-row kind dispatch.
		if !numericKind(lk) || !numericKind(rk) {
			break
		}
		if lk == datum.KindInt && rk == datum.KindInt && v.Op != "/" {
			return c.emit(vinst{op: vopArith, kind: datum.KindInt, sym: v.Op[0], a: l, b: r})
		}
		l, r = c.toFloat(l, lk), c.toFloat(r, rk)
		return c.emit(vinst{op: vopArith, kind: datum.KindFloat, sym: v.Op[0], a: l, b: r})

	case "AND", "OR":
		// 3VL with NULL operands is not constant-foldable (NULL AND
		// FALSE = FALSE), so require statically bool operands.
		if lk != datum.KindBool || rk != datum.KindBool {
			break
		}
		op := vopAnd
		if v.Op == "OR" {
			op = vopOr
		}
		return c.emit(vinst{op: op, kind: datum.KindBool, a: l, b: r})
	}
	return 0, 0, false
}

// cmpTruths tabulates each comparison operator over the three
// datum.Compare outcomes of (a, b): a < b, a = b, a > b.
var cmpTruths = map[string][3]bool{
	"=":  {false, true, false},
	"!=": {true, false, true},
	"<":  {true, false, false},
	"<=": {true, true, false},
	">":  {false, false, true},
	">=": {false, true, true},
}

// cmp emits register a (of kind ak) op rhs. A literal rhs fuses into the
// instruction instead of being broadcast into a register per batch — the
// `col op const` filter shape. Kind pairs follow datum.Compare: exact int
// compare, mixed numerics through float, strings and bools within kind.
// Cross-kind non-numeric pairs order by kind tag — left to an adaptor
// rather than replicated. A statically NULL side yields a KindNull
// register (NULL for every row).
func (c *vexprCompiler) cmp(op string, a int32, ak datum.Kind, rhs sqlparser.Expr, mirrored bool) (int32, datum.Kind, bool) {
	in := vinst{op: vopCmp, kind: datum.KindBool, truth: cmpTruths[op], b: -1}
	if mirrored { // the register is the expression's right operand
		in.truth[0], in.truth[2] = in.truth[2], in.truth[0]
	}
	var bk datum.Kind
	if lit, ok := rhs.(*sqlparser.Literal); ok {
		in.lit, bk = lit.Value, lit.Value.K
	} else {
		in.b, bk = c.compile(rhs)
	}
	if ak == datum.KindNull || bk == datum.KindNull {
		return c.constReg(datum.Null)
	}
	switch {
	case ak == datum.KindInt && bk == datum.KindInt:
	case numericKind(ak) && numericKind(bk):
		a = c.toFloat(a, ak)
		if in.b >= 0 {
			in.b = c.toFloat(in.b, bk)
		} else {
			f, _ := in.lit.AsFloat()
			in.lit = datum.Float(f)
		}
	case ak == bk && (ak == datum.KindString || ak == datum.KindBool):
	default:
		return 0, 0, false
	}
	in.a = a
	return c.emit(in)
}

func (c *vexprCompiler) caseExpr(v *sqlparser.CaseExpr) (int32, datum.Kind, bool) {
	// Operand form rewrites to searched form: CASE x WHEN w THEN t
	// matches iff x = w is TRUE, which is exactly the row path's
	// non-NULL Compare==0 test under 3VL equality.
	var opReg int32
	var opKind datum.Kind
	if v.Operand != nil {
		opReg, opKind = c.compile(v.Operand)
	}
	in := vinst{op: vopCase, kind: datum.KindNull, els: -1}
	// A NULL branch adopts the others' kind; two kinds, or one only the
	// rows tell, do not type.
	merge := func(k datum.Kind) bool {
		switch {
		case k == datum.KindNull:
			return true
		case in.kind == datum.KindNull && k != kindDynamic:
			in.kind = k
		}
		return in.kind == k
	}
	for _, w := range v.Whens {
		var cond int32
		var ck datum.Kind
		if v.Operand != nil {
			var ok bool
			if cond, ck, ok = c.cmp("=", opReg, opKind, w.Cond, false); !ok {
				return 0, 0, false
			}
			// Operand-form match requires both sides non-NULL, so a
			// statically NULL side never matches.
			c.insts[cond].kind = datum.KindBool
		} else if cond, ck = c.compile(w.Cond); ck != datum.KindBool {
			// Truthy() is false for every non-bool datum; a statically
			// non-bool condition is left to an adaptor.
			return 0, 0, false
		}
		t, tk := c.compile(w.Then)
		if !merge(tk) {
			return 0, 0, false
		}
		in.conds, in.thens = append(in.conds, cond), append(in.thens, t)
	}
	if v.Else != nil {
		var ek datum.Kind
		if in.els, ek = c.compile(v.Else); !merge(ek) {
			return 0, 0, false
		}
	}
	if in.kind == datum.KindNull {
		// Every branch is NULL.
		return c.constReg(datum.Null)
	}
	return c.emit(in)
}

// ---- Evaluation ----

// evalBatch runs the program over a batch and returns its value, valid
// at the slots of sel — the only slots an instruction evaluates, so the
// cost follows the rows that survived — until the program runs again.
// A bare column is the batch's own vector, whatever
// it holds. A batch whose columns contradict the kinds the typed
// instructions were compiled for runs the whole expression's closure
// instead (rule 2). The registers are borrowed into *stp on first use.
func (p *vexprProg) evalBatch(stp **vexprState, b *mapred.RecordBatch, sel []int32) (*datum.ColumnVector, error) {
	if len(p.insts) == 1 && p.insts[0].op == vopCol {
		return &b.Cols[p.insts[0].a], nil
	}
	st := *stp
	if st == nil {
		st = vexprStates.Get()
		*stp = st
	}
	if n := len(p.insts); len(st.store) < n {
		st.regs = append(st.regs, make([]*datum.ColumnVector, n-len(st.regs))...)
		st.store = append(st.store, make([]datum.ColumnVector, n-len(st.store))...)
	}
	last := len(p.insts) - 1
	if !p.fits(b) {
		out := &st.store[last]
		return out, st.adapt(&p.whole, kindDynamic, b, sel, out)
	}
	n := b.Len
	for r := range p.insts {
		in := &p.insts[r]
		if in.op == vopCol {
			st.regs[r] = &b.Cols[in.a]
			continue
		}
		out := &st.store[r]
		st.regs[r] = out
		switch in.op {
		case vopConst:
			out.Fill(in.lit, n)
		case vopToFloat:
			a := st.regs[in.a]
			out.Reset(datum.KindFloat, n)
			for _, i := range sel {
				if !a.Nulls[i] {
					out.Floats[i] = float64(a.Ints[i])
					out.Nulls[i] = false
				}
			}
		case vopNeg:
			a := st.regs[in.a]
			out.Reset(in.kind, n)
			if out.Kind == datum.KindInt {
				for _, i := range sel {
					if !a.Nulls[i] {
						out.Ints[i] = -a.Ints[i]
						out.Nulls[i] = false
					}
				}
			} else {
				for _, i := range sel {
					if !a.Nulls[i] {
						out.Floats[i] = -a.Floats[i]
						out.Nulls[i] = false
					}
				}
			}
		case vopNot:
			a := st.regs[in.a]
			out.Reset(datum.KindBool, n)
			for _, i := range sel {
				if !a.Nulls[i] {
					out.Bools[i] = !a.Bools[i]
					out.Nulls[i] = false
				}
			}
		case vopArith:
			evalArith(in, st.regs[in.a], st.regs[in.b], out, n, sel)
		case vopCmp:
			var b *datum.ColumnVector // nil = compare against in.lit
			if in.b >= 0 {
				b = st.regs[in.b]
			}
			evalCmp(in, st.regs[in.a], b, out, p.insts[in.a].kind, n, sel)
		case vopAnd, vopOr:
			dom := in.op == vopOr // the value either operand decides alone
			a, bb := st.regs[in.a], st.regs[in.b]
			out.Reset(datum.KindBool, n)
			for _, i := range sel {
				switch {
				case !a.Nulls[i] && a.Bools[i] == dom || !bb.Nulls[i] && bb.Bools[i] == dom:
					out.Bools[i], out.Nulls[i] = dom, false
				case !a.Nulls[i] && !bb.Nulls[i]:
					out.Bools[i], out.Nulls[i] = !dom, false
				} // else NULL
			}
		case vopCase:
			evalCase(st, in, out, n, sel)
		case vopAdapt:
			if err := st.adapt(in.ad, in.kind, b, sel, out); err != nil {
				return nil, err
			}
		}
	}
	return st.regs[last], nil
}

// fits reports whether every column a typed instruction reads holds the
// kind it was compiled for. A mixed column does not; an all-NULL vector
// does, since every typed read is guarded by the null mask.
func (p *vexprProg) fits(b *mapred.RecordBatch) bool {
	for i := range p.insts {
		in := &p.insts[i]
		if in.op != vopCol || in.kind == kindDynamic {
			continue
		}
		if v := &b.Cols[in.a]; len(v.Datums) > 0 || v.Kind != in.kind && v.Kind != datum.KindNull {
			return false
		}
	}
	return true
}

// adapt runs an adaptor's row closure at every slot of sel into out,
// reading the row from the columns the closure needs. Slots outside sel
// stay NULL.
func (st *vexprState) adapt(ad *vadaptor, kind datum.Kind, b *mapred.RecordBatch, sel []int32, out *datum.ColumnVector) error {
	if kind == kindDynamic {
		kind = datum.KindNull // the first value's kind, mixed if others differ
	}
	out.Reset(kind, b.Len)
	st.row = slices.Grow(st.row[:0], len(b.Cols))[:len(b.Cols)]
	for _, i := range sel {
		if ad.cols == nil {
			st.row = b.RowInto(st.row, int(i))
		}
		for _, c := range ad.cols {
			st.row[c] = b.Cols[c].Datum(int(i))
		}
		d, err := ad.fn(st.row)
		if err != nil {
			return err
		}
		out.Put(int(i), d)
	}
	return nil
}

// releaseState hands a mapper's registers back. The aliases of batch
// columns and the adaptors' row go first: nothing on the free list
// points into a reader's vectors.
func releaseState(stp **vexprState) {
	if st := *stp; st != nil {
		clear(st.regs)
		clear(st.row)
		vexprStates.Put(st)
		*stp = nil
	}
}

// evalArith runs one typed arithmetic loop. Operands share the result
// kind (the compiler inserts conversions); NULL propagates, and
// division / modulo by zero yields NULL like the row path.
func evalArith(in *vinst, a, b, out *datum.ColumnVector, n int, sel []int32) {
	out.Reset(in.kind, n)
	if in.kind == datum.KindInt {
		for _, i := range sel {
			if a.Nulls[i] || b.Nulls[i] {
				continue
			}
			x, y := a.Ints[i], b.Ints[i]
			switch in.sym {
			case '+':
				out.Ints[i] = x + y
			case '-':
				out.Ints[i] = x - y
			case '*':
				out.Ints[i] = x * y
			case '%':
				if y == 0 {
					continue // NULL
				}
				out.Ints[i] = x % y
			}
			out.Nulls[i] = false
		}
		return
	}
	for _, i := range sel {
		if a.Nulls[i] || b.Nulls[i] {
			continue
		}
		x, y := a.Floats[i], b.Floats[i]
		switch in.sym {
		case '+':
			out.Floats[i] = x + y
		case '-':
			out.Floats[i] = x - y
		case '*':
			out.Floats[i] = x * y
		case '/':
			if y == 0 {
				continue // NULL
			}
			out.Floats[i] = x / y
		case '%':
			if y == 0 {
				continue // NULL
			}
			out.Floats[i] = math.Mod(x, y)
		}
		out.Nulls[i] = false
	}
}

// evalCmp runs one typed comparison loop with datum.Compare ordering
// (NaN compares neither above nor below, exactly like the row path).
// A nil b compares against the instruction's fused literal.
func evalCmp(in *vinst, a, b, out *datum.ColumnVector, operandKind datum.Kind, n int, sel []int32) {
	out.Reset(datum.KindBool, n)
	var bv datum.ColumnVector // all-nil slices select the literal
	if b != nil {
		bv = *b
	}
	switch operandKind {
	case datum.KindInt:
		cmpLoop(in.truth, out, sel, a.Nulls, a.Ints, bv.Nulls, bv.Ints, in.lit.I)
	case datum.KindFloat:
		cmpLoop(in.truth, out, sel, a.Nulls, a.Floats, bv.Nulls, bv.Floats, in.lit.F)
	case datum.KindString:
		cmpLoop(in.truth, out, sel, a.Nulls, a.Strs, bv.Nulls, bv.Strs, in.lit.S)
	case datum.KindBool:
		for _, i := range sel {
			if a.Nulls[i] || (b != nil && b.Nulls[i]) {
				continue
			}
			y := in.lit.B
			if b != nil {
				y = b.Bools[i]
			}
			c := 1
			if x := a.Bools[i]; !x && y {
				c = 0
			} else if x && !y {
				c = 2
			}
			out.Bools[i], out.Nulls[i] = in.truth[c], false
		}
	}
}

// cmpLoop compares av[i] with bv[i] (or lit when bv is nil) at every
// selected slot where neither side is NULL.
func cmpLoop[T int64 | float64 | string](truth [3]bool, out *datum.ColumnVector, sel []int32, an []bool, av []T, bn []bool, bv []T, lit T) {
	for _, i := range sel {
		if an[i] || (bn != nil && bn[i]) {
			continue
		}
		y := lit
		if bv != nil {
			y = bv[i]
		}
		c := 1
		if x := av[i]; x < y {
			c = 0
		} else if x > y {
			c = 2
		}
		out.Bools[i], out.Nulls[i] = truth[c], false
	}
}

// evalCase picks, per row, the first branch whose condition is TRUE.
func evalCase(st *vexprState, in *vinst, out *datum.ColumnVector, n int, sel []int32) {
	out.Reset(in.kind, n)
	for _, i := range sel {
		src := in.els
		for k := range in.conds {
			cv := st.regs[in.conds[k]]
			if !cv.Nulls[i] && cv.Bools[i] {
				src = in.thens[k]
				break
			}
		}
		if src < 0 {
			continue // NULL
		}
		v := st.regs[src]
		if v.Kind == datum.KindNull || v.Nulls[i] {
			continue // NULL branch value
		}
		out.Nulls[i] = false
		switch in.kind {
		case datum.KindInt:
			out.Ints[i] = v.Ints[i]
		case datum.KindFloat:
			out.Floats[i] = v.Floats[i]
		case datum.KindBool:
			out.Bools[i] = v.Bools[i]
		case datum.KindString:
			out.Strs[i] = v.Strs[i]
		}
	}
}
