package hive

import (
	"slices"

	"dualtable/internal/datum"
	"dualtable/internal/mapred"
	"dualtable/internal/sqlparser"
)

// This file holds the vectorized scan support shared by the scan
// mappers: the WHERE step (a bool vector program reduced to a selection
// vector) and per-expression evaluation that reads column vectors
// directly or runs a compiled program (vexpr.go), so batch mappers
// materialize rows only where an expression genuinely needs one.

// scanFilter is the WHERE step of a scan mapper plus the lazily
// materialized row its fallbacks evaluate against. It holds per-mapper
// state; mappers copy it by value from an unused template.
type scanFilter struct {
	where vecExpr // fn nil = no WHERE; prog nil = row evaluation only
	sel   []int32 // reused selection vector
	brow  batchRow
}

// rowOracle: under Cluster.DisableBatchScan every expression compiles
// to its row function alone, an oracle independent of the vector paths.
func (e *Engine) rowOracle() bool { return e.MR != nil && e.MR.DisableBatchScan }

// newScanFilter compiles WHERE (nil = none) into its row predicate and,
// when it is a statically boolean expression the vector compiler
// covers and the cluster is not the row oracle, its vector program.
func (e *Engine) newScanFilter(ec *ExecContext, where sqlparser.Expr, sc *scope) (scanFilter, error) {
	f := scanFilter{where: vecExpr{col: -1}}
	if where == nil {
		return f, nil
	}
	var err error
	if f.where.fn, err = e.compileExpr(ec, where, sc); err != nil || e.rowOracle() {
		return f, err
	}
	if prog, ok := compileVexpr(where, sc); ok && prog.kinds[prog.out] == datum.KindBool {
		f.where.prog = prog
	}
	return f, nil
}

// begin starts a batch and returns its live slots that pass WHERE
// (TRUE only: NULL and FALSE drop), starting from the batch's own
// selection. A compiled WHERE runs its vector program once over the
// batch and reads the result at the live slots; an uncompilable WHERE
// or a runtime kind bail evaluates the row predicate per live slot. The
// result is valid until the next call.
func (f *scanFilter) begin(b *mapred.RecordBatch) ([]int32, error) {
	f.brow.filled = -1
	if f.where.fn == nil {
		if b.Sel != nil {
			return b.Sel, nil
		}
		// No WHERE: the identity selection, extended once per size.
		f.sel = slices.Grow(f.sel, max(b.Len-len(f.sel), 0))
		for len(f.sel) < b.Len {
			f.sel = append(f.sel, int32(len(f.sel)))
		}
		return f.sel[:b.Len], nil
	}
	// One allocation per mapper, not a doubling ladder: sized to the
	// survivors when the program ran (a selective filter keeps a few
	// rows of a batch in every task), to the batch when only evaluating
	// each row can tell.
	sel := f.sel[:0]
	f.where.beginBatch(b)
	live := b.Live()
	if res := f.where.res; res != nil {
		pass := func(i int) bool { return !res.Nulls[i] && res.Bools[i] }
		n := 0
		for k := 0; k < live; k++ {
			if pass(b.Slot(k)) {
				n++
			}
		}
		sel = slices.Grow(sel, n)
		for k := 0; k < live; k++ {
			if i := b.Slot(k); pass(i) {
				sel = append(sel, int32(i))
			}
		}
	} else {
		sel = slices.Grow(sel, live)
		for k := 0; k < live; k++ {
			i := b.Slot(k)
			ok, err := f.where.fn(f.brow.row(b, i))
			if err != nil {
				return nil, err
			}
			if ok.Truthy() {
				sel = append(sel, int32(i))
			}
		}
	}
	f.sel = sel
	return sel, nil
}

// colRefIndex reports the scope index of a bare column reference, the
// expressions a batch consumer can read straight off a vector.
func colRefIndex(expr sqlparser.Expr, sc *scope) (int, bool) {
	ref, ok := expr.(*sqlparser.ColumnRef)
	if !ok {
		return 0, false
	}
	idx, err := sc.resolve(ref)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// vecExpr evaluates one select/group/aggregate-argument expression
// against a batch, fastest path first: a direct vector read (bare
// column ref), a compiled vector program (arithmetic, CASE,
// comparisons — see vexpr.go), or the row-at-a-time evalFn over a
// lazily materialized row.
//
// col, fn and prog are immutable and shared across map tasks; st and
// res are per-mapper evaluation state, so mappers that run batches in
// parallel must each own their vecExpr slice (clone it per mapper) and
// return st at Close (releaseRegisters).
type vecExpr struct {
	col  int // vector index when direct
	fn   evalFn
	prog *vexprProg

	st  *vexprState         // per-mapper program scratch
	res *datum.ColumnVector // prog result for the current batch
}

// compileVecExprs pairs each expression with its fastest path, or with
// its row function alone under the row oracle.
func (e *Engine) compileVecExprs(exprs []sqlparser.Expr, fns []evalFn, sc *scope) []vecExpr {
	out := make([]vecExpr, len(fns))
	for i := range fns {
		out[i] = vecExpr{col: -1, fn: fns[i]}
		if i < len(exprs) && exprs[i] != nil && !e.rowOracle() {
			if idx, ok := colRefIndex(exprs[i], sc); ok {
				out[i].col = idx
			} else if prog, ok := compileVexpr(exprs[i], sc); ok {
				out[i].prog = prog
			}
		}
	}
	return out
}

// beginBatch runs the compiled program (if any) once for the batch, so
// per-row eval calls read the result vector instead of re-deriving
// each value. res stays nil on a runtime kind mismatch and eval falls
// back to the row path for this batch.
func (x *vecExpr) beginBatch(b *mapred.RecordBatch) {
	x.res = nil
	if x.prog != nil {
		x.res = x.prog.evalBatch(&x.st, b)
	}
}

// release hands the expression's registers to the next mapper. The
// aliases of batch columns go first: nothing on the free list points
// into a reader's vectors.
func (x *vecExpr) release() {
	if x.st != nil {
		clear(x.st.regs)
		vexprStates.Put(x.st)
		x.st, x.res = nil, nil
	}
}

// releaseRegisters is a scan mapper's Close: the registers of its
// filter and of every expression list return to the free list. The
// mapper must not evaluate afterwards.
func releaseRegisters(f *scanFilter, lists ...[]vecExpr) error {
	f.where.release()
	for _, xs := range lists {
		for i := range xs {
			xs[i].release()
		}
	}
	return nil
}

// beginBatchAll resolves every expression's vector for the batch.
func beginBatchAll(xs []vecExpr, b *mapred.RecordBatch) {
	for i := range xs {
		xs[i].beginBatch(b)
	}
}

// batchRow lazily materializes one batch row for evalFn fallbacks: the
// buffer is filled at most once per (batch, index).
type batchRow struct {
	buf    datum.Row
	filled int // index the buffer currently holds, -1 = none
}

func (br *batchRow) row(b *mapred.RecordBatch, i int) datum.Row {
	if br.filled == i && br.buf != nil {
		return br.buf
	}
	br.buf = b.RowInto(br.buf, i)
	br.filled = i
	return br.buf
}

// vec returns the batch vector backing this expression, if any: the
// aliased batch column for a bare ref, or the program's result for
// this batch. Callers use it for typed whole-vector folds.
func (x *vecExpr) vec(b *mapred.RecordBatch) *datum.ColumnVector {
	if x.col >= 0 {
		return &b.Cols[x.col]
	}
	return x.res
}

// eval evaluates one vecExpr for batch row i.
func (x *vecExpr) eval(b *mapred.RecordBatch, i int, br *batchRow) (datum.Datum, error) {
	if x.col >= 0 {
		return b.Cols[x.col].Datum(i), nil
	}
	if x.res != nil {
		return x.res.Datum(i), nil
	}
	return x.fn(br.row(b, i))
}
