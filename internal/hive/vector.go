package hive

import (
	"slices"

	"dualtable/internal/datum"
	"dualtable/internal/mapred"
	"dualtable/internal/orcfile"
	"dualtable/internal/sqlparser"
)

// This file holds what the scan mappers share to evaluate expressions
// over a batch: the WHERE step, a selection narrowed one conjunct at a
// time, and vecExpr, one program (vexpr.go) with the registers a mapper
// runs it in. Every consumer reads an expression's value from its
// program's result vector.

// scanFilter is the WHERE step of a scan mapper. It holds per-mapper
// state; mappers copy it by value from an unused template.
type scanFilter struct {
	where []*vexprProg // the conjuncts, typed ones first; none = no WHERE
	st    *vexprState  // shared by the conjuncts: each is read before the next runs
	sel   []int32      // reused selection vector
}

// rowOracle: under Cluster.DisableBatchScan every program is one adaptor
// over its whole expression, an oracle independent of the typed
// instructions.
func (e *Engine) rowOracle() bool { return e.MR != nil && e.MR.DisableBatchScan }

// newScanFilter compiles WHERE (nil = none) into one program per
// conjunct, those without an adaptor first, so the typed conjuncts
// narrow the rows before an adaptor sees them. A WHERE holding a
// subquery, and every WHERE under the row oracle, stays one program:
// its subquery then runs exactly when the row evaluation's would.
func (e *Engine) newScanFilter(ec *ExecContext, where sqlparser.Expr, sc *scope) (scanFilter, error) {
	var f scanFilter
	conjs := sqlparser.SplitConjuncts(where)
	if len(conjs) > 1 && (e.rowOracle() || sqlparser.ContainsSubquery(where)) {
		conjs = []sqlparser.Expr{where}
	}
	typed := 0
	for _, c := range conjs {
		p, err := e.compileVexpr(ec, c, sc)
		if err != nil {
			return f, err
		}
		if p.typed() {
			f.where = slices.Insert(f.where, typed, p)
			typed++
		} else {
			f.where = append(f.where, p)
		}
	}
	return f, nil
}

// allSlots[:n] selects every slot of an n-slot batch: shared and never
// written. No reader's batch is longer.
var allSlots = func() []int32 {
	s := make([]int32, orcfile.DefaultBatchRows)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// liveSlots returns the batch's selection, or all its slots.
func liveSlots(b *mapred.RecordBatch) []int32 {
	if b.Sel != nil {
		return b.Sel
	}
	return allSlots[:b.Len:b.Len]
}

// begin starts a batch and returns its live slots that pass WHERE (TRUE
// only: NULL and FALSE drop), starting from the batch's own selection
// and narrowing it by each conjunct in turn. The result is valid until
// the next call.
func (f *scanFilter) begin(b *mapred.RecordBatch) ([]int32, error) {
	sel := liveSlots(b)
	for k, p := range f.where {
		v, err := p.evalBatch(&f.st, b, sel)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			// One allocation per mapper, not a doubling ladder: sized to
			// the first conjunct's survivors, which later conjuncts
			// narrow in place.
			n := 0
			for _, i := range sel {
				if passes(v, i) {
					n++
				}
			}
			if cap(f.sel) < n {
				f.sel = make([]int32, 0, n)
			}
		}
		out := f.sel[:0]
		for _, i := range sel {
			if passes(v, i) {
				out = append(out, i)
			}
		}
		f.sel, sel = out, out
	}
	return sel, nil
}

// passes reports whether slot i of a WHERE value is TRUE.
func passes(v *datum.ColumnVector, i int32) bool {
	switch {
	case v.Nulls[i]:
		return false
	case v.Kind == datum.KindBool:
		return v.Bools[i]
	case len(v.Datums) > 0:
		return v.Datums[i].Truthy()
	}
	return false
}

// vecExpr is one expression as a mapper evaluates it: its program,
// shared across map tasks, with the mapper's own registers and the
// value they hold for the current batch. Mappers that run batches in
// parallel must each own their vecExpr slice (clone it per mapper) and
// return the registers at Close (releaseRegisters).
type vecExpr struct {
	prog *vexprProg          // nil = nothing to evaluate (COUNT(*)'s argument)
	st   *vexprState         // per-mapper program scratch
	res  *datum.ColumnVector // the value at the current batch's selected slots
}

// compileVecs compiles each expression (nil = none) into its program.
func (e *Engine) compileVecs(ec *ExecContext, xs []sqlparser.Expr, sc *scope) ([]vecExpr, error) {
	out := make([]vecExpr, len(xs))
	for i, x := range xs {
		if x == nil {
			continue
		}
		var err error
		if out[i].prog, err = e.compileVexpr(ec, x, sc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// beginBatchAll evaluates every expression at the selected slots of the
// batch.
func beginBatchAll(xs []vecExpr, b *mapred.RecordBatch, sel []int32) error {
	for i := range xs {
		x := &xs[i]
		if x.prog == nil {
			continue
		}
		var err error
		if x.res, err = x.prog.evalBatch(&x.st, b, sel); err != nil {
			return err
		}
	}
	return nil
}

// releaseRegisters is a scan mapper's Close: the registers of its
// filter and of every expression list return to the free list. The
// mapper must not evaluate afterwards.
func releaseRegisters(f *scanFilter, lists ...[]vecExpr) error {
	releaseState(&f.st)
	for _, xs := range lists {
		for i := range xs {
			releaseState(&xs[i].st)
			xs[i].res = nil
		}
	}
	return nil
}
