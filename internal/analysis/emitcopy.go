package analysis

import (
	"go/ast"
	"go/token"
)

// EmitCopy enforces the copy-on-shuffle ownership contract documented
// in internal/mapred/mapred.go (and exploited by PR 9's columnar
// shuffle):
//
//   - A collector emit transfers ownership of the value row: after
//     `emit(key, row)`, the emitter must not retain `row` (store it
//     in a field, append it whole to a slice, put it in a map) —
//     the engine stored the same backing array without cloning, and
//     a retained alias becomes a data race with the job output.
//   - The input row a RecordReader hands to Map is a reused buffer:
//     Map must never retain it whole either. Element access
//     (row[i]) and spread copies (append(dst, row...)) are legal.
//   - The batch form of the same rule: MapBatch(b *RecordBatch, emit)
//     must not retain b, its Cols or Sel slices, or a vector b.Cols[j]
//     / &b.Cols[j] — the reader refills them on the next batch.
//     Scalar reads (b.Cols[j].Ints[i], b.Sel[k]) and spread copies
//     (append(dst, b.Sel...)) are legal.
//   - The batch-sink rule: what MapBatch hands its batch sink (a call
//     to emitBatch or CollectBatch) the sink may keep, and a streamed
//     result does, so a result batch must own its storage. Passing the
//     sink b.Cols[j], &b.Cols[j], b.Cols itself or a vector's storage
//     (b.Cols[j].Ints, re-sliced or not) — directly or as a field of
//     a composite literal — is a finding, as is storing any of those in
//     a field or element on the way there: compact by copying
//     (ColumnVector.Gather).
//
// Candidate functions are those that receive an Emitter — a
// parameter of type (mapred.)Emitter or named emit — plus Map
// methods with the (row, meta, emit) shape and MapBatch methods with
// the (b *RecordBatch, emit) shape.
var EmitCopy = &Analyzer{
	Name: "emitcopy",
	Doc:  "mapper/combiner code must not retain row buffers passed to Emit or received from the reader",
	Run:  runEmitCopy,
}

func runEmitCopy(pass *Pass) error {
	funcBodies(pass.Files, func(name string, ft *ast.FuncType, body *ast.BlockStmt) {
		emitParam, rowParam, batchParam := emitterShape(ft)
		if emitParam == "" {
			return
		}
		checkEmitCopy(pass, emitParam, rowParam, batchParam, body)
	})
	return nil
}

// emitterShape returns the Emitter-typed parameter's name and, for
// Map- and MapBatch-shaped functions, the name of the reused input-row
// or input-batch parameter.
func emitterShape(ft *ast.FuncType) (emitParam, rowParam, batchParam string) {
	if ft.Params == nil {
		return "", "", ""
	}
	for i, p := range ft.Params.List {
		isEmitter := false
		switch path := selPath(p.Type); path {
		case "Emitter", "mapred.Emitter":
			isEmitter = true
		}
		for _, n := range p.Names {
			if isEmitter || n.Name == "emit" {
				emitParam = n.Name
				// A Map-shaped function's first parameter is the
				// reader-owned reused row buffer.
				if i >= 1 && len(ft.Params.List) >= 3 {
					if rp := ft.Params.List[0]; len(rp.Names) == 1 {
						if selPath(rp.Type) == "Row" || selPath(rp.Type) == "datum.Row" {
							rowParam = rp.Names[0].Name
						}
					}
				}
				// A MapBatch-shaped function's first parameter is the
				// reader-owned reused batch.
				if bp := ft.Params.List[0]; i >= 1 && len(bp.Names) == 1 {
					if star, ok := bp.Type.(*ast.StarExpr); ok {
						if t := selPath(star.X); t == "RecordBatch" || t == "mapred.RecordBatch" {
							batchParam = bp.Names[0].Name
						}
					}
				}
			}
		}
	}
	return emitParam, rowParam, batchParam
}

// batchAlias reports whether e aliases reader-owned batch memory: the
// batch itself, its Cols or Sel slice, one element (or sub-slice, or
// element address) of those, or the storage of one of its vectors
// (b.Cols[j].Ints, whole or re-sliced).
func batchAlias(e ast.Expr, batch string) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	if x, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(x.X)
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Nulls", "Ints", "Floats", "Bools", "Strs", "Datums":
			if x, ok := ast.Unparen(sel.X).(*ast.IndexExpr); ok {
				e = x // the vector whose storage this is
			}
		}
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = ast.Unparen(x.X)
	case *ast.SliceExpr:
		e = ast.Unparen(x.X)
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Cols", "Sel":
			e = ast.Unparen(sel.X)
		}
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == batch
}

func checkEmitCopy(pass *Pass, emitParam, rowParam, batchParam string, body *ast.BlockStmt) {
	// First sweep: positions where an identifier is passed whole as
	// an emit value.
	emitted := map[string]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == emitParam && len(call.Args) == 2 {
			if v, ok := ast.Unparen(call.Args[1]).(*ast.Ident); ok {
				if _, seen := emitted[v.Name]; !seen {
					emitted[v.Name] = call.Pos()
				}
			}
		}
		return true
	})

	// Second sweep: retention sites. A whole-row retention of an
	// emitted identifier after its emit, or of the reused input row
	// anywhere, violates the contract.
	violates := func(e ast.Expr, pos token.Pos) (string, bool) {
		if batchParam != "" && batchAlias(e, batchParam) {
			return "the reader-owned input batch (reused between batches)", true
		}
		v, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return "", false
		}
		if rowParam != "" && v.Name == rowParam {
			return "the reader-owned input row (reused between records)", true
		}
		if epos, ok := emitted[v.Name]; ok && pos > epos {
			return "a row already passed to " + emitParam + " (ownership transferred to the engine)", true
		}
		return "", false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if batchParam != "" && isBatchSink(n.Fun) {
				for _, arg := range n.Args {
					for _, e := range handedOver(arg) {
						if batchAlias(e, batchParam) {
							pass.Reportf(n.Pos(), "the batch sink is handed the reader-owned input batch (reused between batches); a result batch owns its storage, copy into it")
						}
					}
				}
			}
			// append(s, row) with the row as a whole element (not
			// row... spread, which copies elements).
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && n.Ellipsis == token.NoPos {
				for _, arg := range n.Args[1:] {
					if what, bad := violates(arg, n.Pos()); bad {
						pass.Reportf(n.Pos(), "append retains %s; copy it first (append(dst, row...) or a clone)", what)
					}
				}
			}
		case *ast.AssignStmt:
			// x.field = row / m[k] = row / s[i] = row.
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				switch lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					if what, bad := violates(n.Rhs[i], n.Pos()); bad {
						pass.Reportf(n.Pos(), "assignment retains %s; copy it first", what)
					}
				}
			}
		}
		return true
	})
}

// isBatchSink reports whether fun names a batch sink: emitBatch (a
// mapper's mapred.BatchEmitter) or a collector's CollectBatch.
func isBatchSink(fun ast.Expr) bool {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return f.Name == "emitBatch"
	case *ast.SelectorExpr:
		return f.Sel.Name == "emitBatch" || f.Sel.Name == "CollectBatch"
	}
	return false
}

// handedOver lists what a sink argument gives away: the argument, or
// the field values of a (pointer to a) composite literal.
func handedOver(arg ast.Expr) []ast.Expr {
	e := ast.Unparen(arg)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return []ast.Expr{arg}
	}
	var out []ast.Expr
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			el = kv.Value
		}
		out = append(out, handedOver(el)...)
	}
	return out
}
