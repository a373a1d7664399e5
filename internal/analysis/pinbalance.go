package analysis

import (
	"go/ast"
	"go/token"
)

// PinBalance enforces the MVCC pinning contract: every snapshot or
// pin acquisition must reach a release on all return paths.
//
// Acquisitions tracked:
//   - v, err := x.OpenSnapshot(...) / x.OpenSnapshotAt(...) / x.open(...)
//     (the one protocol behind both) / x.buildRelation(...) /
//     x.planSelect(...) (a compiled SELECT owns its pinned relation) —
//     the value must reach Release (or Close) on every path, unless it
//     escapes (returned, stored, passed along, captured by a closure):
//     an escape transfers ownership to whoever now holds it.
//   - x.Pin(p) — the path p must reach x.Unpin(p), unless p escapes
//     into a tracked pin set (appended to a slice, stored in a field,
//     handed to another call), which is the snapshot accumulator
//     idiom (the files a core.Snapshot holds, released by Snapshot.Release).
//
// The error-variable idiom is understood: inside `if err != nil`
// where err is the acquisition's error result, the resource is not
// held (the acquisition failed), so `return nil, err` there is legal.
// This is the exact bug class PR 7's ErrNotPinned work chased
// dynamically — a snapshot opened, an error return taken before
// Release, and the table's files pinned forever.
var PinBalance = &Analyzer{
	Name: "pinbalance",
	Doc:  "snapshot/pin acquisitions must reach Release/Unpin on all return paths",
	Run:  runPinBalance,
}

// acquireMethods yield a tracked value resource when assigned as
// (value, error).
var acquireMethods = map[string]bool{
	"OpenSnapshot":   true,
	"OpenSnapshotAt": true,
	"open":           true,
	"buildRelation":  true,
	"planSelect":     true,
}

// releaseMethods release a tracked value resource when called on it.
var releaseMethods = map[string]bool{
	"Release": true,
	"Close":   true,
	"release": true,
}

type pbResource struct {
	key  string // held-map key
	what string // human description ("snapshot \"snap\"", "pin on mf.Path")
	name string // value resources: the variable name; "" for pins
	// pinArg is the pinned path's source text for pin resources.
	pinArg string
	// errVar is the acquisition's error result variable; inside an
	// `if errVar != nil` branch the resource is not held.
	errVar string
	pos    token.Pos
}

type pbState map[string]*pbResource

func (s pbState) clone() pbState {
	c := make(pbState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// dropErrVar invalidates the error-branch exemption for resources
// whose error variable is being reassigned.
func (s pbState) dropErrVar(name string) {
	for _, r := range s {
		if r.errVar == name {
			r.errVar = ""
		}
	}
}

type pbWalker struct {
	pass *Pass
}

func runPinBalance(pass *Pass) error {
	w := &pbWalker{pass: pass}
	funcBodies(pass.Files, func(name string, ft *ast.FuncType, body *ast.BlockStmt) {
		held := pbState{}
		w.walk(body.List, held)
		// Void functions can fall off the end still holding.
		if ft.Results == nil || len(ft.Results.List) == 0 {
			for _, r := range held {
				pass.Reportf(body.Rbrace, "function ends holding %s (acquired at %s) without Release/Unpin",
					r.what, pass.Fset.Position(r.pos))
			}
		}
	})
	return nil
}

func (w *pbWalker) walk(stmts []ast.Stmt, held pbState) {
	for _, stmt := range stmts {
		w.stmt(stmt, held)
	}
}

func (w *pbWalker) stmt(stmt ast.Stmt, held pbState) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		// Reassigning an error variable invalidates old exemptions
		// before a new acquisition (possibly on the same line)
		// re-establishes one.
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				held.dropErrVar(id.Name)
			}
		}
		w.scanGeneric(s, held)
		w.acquireFrom(s, held)
	case *ast.ExprStmt:
		w.scanGeneric(s, held)
		w.acquirePinBare(s.X, "", held)
	case *ast.DeferStmt:
		// A deferred release covers every subsequent return.
		w.releasesIn(s.Call, held)
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.releasesInBlock(lit.Body, held)
		}
		// Arguments to other deferred calls escape.
		w.escapesIn(s, held)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			// `return fs.Unpin(p)` both releases and returns.
			ast.Inspect(res, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					w.releasesIn(call, held)
				}
				return true
			})
			w.transferIdents(res, held)
		}
		for _, r := range held {
			w.pass.Reportf(s.Return, "return leaks %s (acquired at %s): no Release/Unpin on this path",
				r.what, w.pass.Fset.Position(r.pos))
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		thenHeld := held.clone()
		elseHeld := held.clone()
		if errName, isNeq := errNilCond(s.Cond); errName != "" {
			exempt := thenHeld
			if !isNeq {
				exempt = elseHeld
			}
			for k, r := range exempt {
				if r.errVar == errName {
					delete(exempt, k)
				}
			}
		}
		w.walk(s.Body.List, thenHeld)
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			w.walk(e.List, elseHeld)
		case *ast.IfStmt:
			w.stmt(e, elseHeld)
		}
	case *ast.BlockStmt:
		w.walk(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.walk(s.Body.List, held.clone())
	case *ast.RangeStmt:
		w.walk(s.Body.List, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				w.walk(c.Body, held.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				w.walk(c.Body, held.clone())
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CommClause); ok {
				w.walk(c.Body, held.clone())
			}
		}
	case *ast.GoStmt:
		// Resources referenced by the spawned goroutine escape to it.
		w.escapesIn(s, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	default:
		w.scanGeneric(stmt, held)
	}
}

// acquireFrom registers acquisitions made by an assignment.
func (w *pbWalker) acquireFrom(s *ast.AssignStmt, held pbState) {
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name := calleeName(call)
	switch {
	case acquireMethods[name] && len(s.Lhs) <= 2:
		var valName, errName string
		if len(s.Lhs) >= 1 {
			if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				valName = id.Name
			}
		}
		if len(s.Lhs) == 2 {
			if id, ok := s.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
				errName = id.Name
			}
		}
		if valName == "" {
			return
		}
		held["v:"+valName] = &pbResource{
			key:    "v:" + valName,
			what:   "snapshot/relation \"" + valName + "\" from " + name,
			name:   valName,
			errVar: errName,
			pos:    call.Pos(),
		}
	case name == "Pin" && len(call.Args) == 1:
		var errName string
		if len(s.Lhs) == 1 {
			if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				errName = id.Name
			}
		}
		w.acquirePin(call, errName, held)
	}
}

// acquirePinBare handles `x.Pin(p)` used as a bare statement.
func (w *pbWalker) acquirePinBare(e ast.Expr, errName string, held pbState) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	if calleeName(call) == "Pin" && len(call.Args) == 1 {
		w.acquirePin(call, errName, held)
	}
}

func (w *pbWalker) acquirePin(call *ast.CallExpr, errName string, held pbState) {
	arg := exprText(call.Args[0])
	key := "p:" + arg
	held[key] = &pbResource{
		key:    key,
		what:   "pin on " + arg,
		pinArg: arg,
		errVar: errName,
		pos:    call.Pos(),
	}
}

// scanGeneric applies releases and escapes found anywhere in a
// non-control statement, then registers `if err := x.Pin(p)`-style
// acquisitions nested in if-inits (handled by the IfStmt case via
// stmt recursion on Init, which lands here as AssignStmt).
func (w *pbWalker) scanGeneric(n ast.Node, held pbState) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			// Captured resources escape to the closure; its body is
			// analyzed as its own function.
			w.escapeCaptured(node.Body, held)
			return false
		case *ast.CallExpr:
			w.releasesIn(node, held)
			w.escapeCallArgs(node, held)
		case *ast.AssignStmt:
			w.escapeStores(node, held)
		case *ast.CompositeLit:
			for _, el := range node.Elts {
				w.transferIdents(el, held)
			}
		case *ast.SendStmt:
			w.transferIdents(node.Value, held)
		}
		return true
	})
}

// releasesIn removes resources released by this call.
func (w *pbWalker) releasesIn(call *ast.CallExpr, held pbState) {
	name := calleeName(call)
	if releaseMethods[name] {
		if recv := calleeRecv(call); recv != "" {
			delete(held, "v:"+recv)
		}
	}
	if name == "Unpin" && len(call.Args) == 1 {
		delete(held, "p:"+exprText(call.Args[0]))
	}
}

// releasesInBlock applies releases found anywhere in a deferred
// closure body.
func (w *pbWalker) releasesInBlock(body *ast.BlockStmt, held pbState) {
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			w.releasesIn(call, held)
		}
		return true
	})
}

// escapeCallArgs transfers resources passed as arguments to any call
// (other than their own release, handled before): the callee now
// owns them.
func (w *pbWalker) escapeCallArgs(call *ast.CallExpr, held pbState) {
	for _, arg := range call.Args {
		w.transferIdents(arg, held)
		text := exprText(arg)
		delete(held, "p:"+text)
	}
}

// escapeStores transfers resources stored into fields, indexes, maps
// or aliased to other variables.
func (w *pbWalker) escapeStores(as *ast.AssignStmt, held pbState) {
	for _, rhs := range as.Rhs {
		w.transferIdents(rhs, held)
	}
}

// escapeCaptured transfers every held resource referenced inside a
// closure body.
func (w *pbWalker) escapeCaptured(body *ast.BlockStmt, held pbState) {
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			delete(held, "v:"+id.Name)
		}
		return true
	})
}

// escapesIn transfers resources referenced anywhere under n.
func (w *pbWalker) escapesIn(n ast.Node, held pbState) {
	ast.Inspect(n, func(node ast.Node) bool {
		if id, ok := node.(*ast.Ident); ok {
			delete(held, "v:"+id.Name)
		}
		if e, ok := node.(ast.Expr); ok {
			delete(held, "p:"+exprText(e))
		}
		return true
	})
}

// transferIdents removes value resources whose name appears in e and
// pin resources whose pinned expression is e.
func (w *pbWalker) transferIdents(e ast.Expr, held pbState) {
	delete(held, "p:"+exprText(e))
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			delete(held, "v:"+id.Name)
		}
		return true
	})
}

// errNilCond matches `x != nil` (returns name, true) and `x == nil`
// (returns name, false); otherwise ("", false).
func errNilCond(cond ast.Expr) (string, bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return "", false
	}
	if be.Op != token.NEQ && be.Op != token.EQL {
		return "", false
	}
	var id *ast.Ident
	if isNilIdent(be.Y) {
		id, _ = ast.Unparen(be.X).(*ast.Ident)
	} else if isNilIdent(be.X) {
		id, _ = ast.Unparen(be.Y).(*ast.Ident)
	}
	if id == nil {
		return "", false
	}
	return id.Name, be.Op == token.NEQ
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
