package hive

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"

	"dualtable/internal/datum"
	"dualtable/internal/sqlparser"
)

// scope maps column references to row positions during compilation.
type scope struct {
	cols []scopeCol
}

type scopeCol struct {
	qual string // lower-case qualifier ("" = none)
	name string // lower-case column name
	kind datum.Kind
}

// newScope builds a scope for a table's schema under one qualifier.
func newScope(qualifier string, schema datum.Schema) *scope {
	s := &scope{}
	q := strings.ToLower(qualifier)
	for _, c := range schema {
		s.cols = append(s.cols, scopeCol{qual: q, name: strings.ToLower(c.Name), kind: c.Kind})
	}
	return s
}

// concat joins two scopes positionally (for joins).
func (s *scope) concat(o *scope) *scope {
	out := &scope{cols: make([]scopeCol, 0, len(s.cols)+len(o.cols))}
	out.cols = append(out.cols, s.cols...)
	out.cols = append(out.cols, o.cols...)
	return out
}

// resolve finds the row index of a column reference.
func (s *scope) resolve(ref *sqlparser.ColumnRef) (int, error) {
	q := strings.ToLower(ref.Table)
	n := strings.ToLower(ref.Name)
	found := -1
	for i, c := range s.cols {
		if c.name != n {
			continue
		}
		if q != "" && c.qual != q {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("hive: ambiguous column reference %q", ref)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("hive: unknown column %q", ref)
	}
	return found, nil
}

// matches lists every row index resolve would consider for the
// reference: one is a unique column, more an ambiguous one.
func (s *scope) matches(ref *sqlparser.ColumnRef) []int {
	q := strings.ToLower(ref.Table)
	n := strings.ToLower(ref.Name)
	var found []int
	for i, c := range s.cols {
		if c.name == n && (q == "" || c.qual == q) {
			found = append(found, i)
		}
	}
	return found
}

// evalFn evaluates an expression over one row. Implementations must
// be safe for concurrent use (map tasks run in parallel).
type evalFn func(row datum.Row) (datum.Datum, error)

// compileExpr compiles an expression against a scope. Aggregate calls
// are rejected here — the planner rewrites them before compilation.
func (e *Engine) compileExpr(ec *ExecContext, x sqlparser.Expr, sc *scope) (evalFn, error) {
	switch v := x.(type) {
	case *sqlparser.Literal:
		d := v.Value
		return func(datum.Row) (datum.Datum, error) { return d, nil }, nil

	case *sqlparser.ColumnRef:
		idx, err := sc.resolve(v)
		if err != nil {
			return nil, err
		}
		return func(row datum.Row) (datum.Datum, error) {
			if idx >= len(row) {
				return datum.Null, fmt.Errorf("hive: row too short for column %s", v)
			}
			return row[idx], nil
		}, nil

	case *sqlparser.Star:
		return nil, fmt.Errorf("hive: '*' is not valid in this context")

	case *sqlparser.UnaryExpr:
		inner, err := e.compileExpr(ec, v.X, sc)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "-":
			return func(row datum.Row) (datum.Datum, error) {
				d, err := inner(row)
				if err != nil || d.IsNull() {
					return datum.Null, err
				}
				switch d.K {
				case datum.KindInt:
					return datum.Int(-d.I), nil
				default:
					f, ok := d.AsFloat()
					if !ok {
						return datum.Null, nil
					}
					return datum.Float(-f), nil
				}
			}, nil
		case "NOT":
			return func(row datum.Row) (datum.Datum, error) {
				d, err := inner(row)
				if err != nil || d.IsNull() {
					return datum.Null, err
				}
				return datum.Bool(!d.Truthy()), nil
			}, nil
		default:
			return nil, fmt.Errorf("hive: unknown unary operator %q", v.Op)
		}

	case *sqlparser.BinaryExpr:
		return e.compileBinary(ec, v, sc)

	case *sqlparser.IsNullExpr:
		inner, err := e.compileExpr(ec, v.X, sc)
		if err != nil {
			return nil, err
		}
		not := v.Not
		return func(row datum.Row) (datum.Datum, error) {
			d, err := inner(row)
			if err != nil {
				return datum.Null, err
			}
			return datum.Bool(d.IsNull() != not), nil
		}, nil

	case *sqlparser.InExpr:
		inner, err := e.compileExpr(ec, v.X, sc)
		if err != nil {
			return nil, err
		}
		items := make([]evalFn, len(v.List))
		for i, it := range v.List {
			f, err := e.compileExpr(ec, it, sc)
			if err != nil {
				return nil, err
			}
			items[i] = f
		}
		not := v.Not
		return func(row datum.Row) (datum.Datum, error) {
			d, err := inner(row)
			if err != nil {
				return datum.Null, err
			}
			if d.IsNull() {
				return datum.Null, nil
			}
			sawNull := false
			for _, f := range items {
				iv, err := f(row)
				if err != nil {
					return datum.Null, err
				}
				if iv.IsNull() {
					sawNull = true
					continue
				}
				if datum.Compare(d, iv) == 0 {
					return datum.Bool(!not), nil
				}
			}
			if sawNull {
				return datum.Null, nil // unknown per SQL 3VL
			}
			return datum.Bool(not), nil
		}, nil

	case *sqlparser.BetweenExpr:
		xf, err := e.compileExpr(ec, v.X, sc)
		if err != nil {
			return nil, err
		}
		lof, err := e.compileExpr(ec, v.Lo, sc)
		if err != nil {
			return nil, err
		}
		hif, err := e.compileExpr(ec, v.Hi, sc)
		if err != nil {
			return nil, err
		}
		not := v.Not
		return func(row datum.Row) (datum.Datum, error) {
			d, err := xf(row)
			if err != nil || d.IsNull() {
				return datum.Null, err
			}
			lo, err := lof(row)
			if err != nil || lo.IsNull() {
				return datum.Null, err
			}
			hi, err := hif(row)
			if err != nil || hi.IsNull() {
				return datum.Null, err
			}
			in := datum.Compare(d, lo) >= 0 && datum.Compare(d, hi) <= 0
			return datum.Bool(in != not), nil
		}, nil

	case *sqlparser.LikeExpr:
		return e.compileLike(ec, v, sc)

	case *sqlparser.CaseExpr:
		return e.compileCase(ec, v, sc)

	case *sqlparser.CastExpr:
		inner, err := e.compileExpr(ec, v.X, sc)
		if err != nil {
			return nil, err
		}
		kind, err := datum.KindFromSQL(v.Type)
		if err != nil {
			return nil, err
		}
		return func(row datum.Row) (datum.Datum, error) {
			d, err := inner(row)
			if err != nil {
				return datum.Null, err
			}
			out, err := datum.Coerce(d, kind)
			if err != nil {
				return datum.Null, nil // Hive CAST failures yield NULL
			}
			return out, nil
		}, nil

	case *sqlparser.FuncCall:
		if sqlparser.IsAggregateFunc(v.Name) {
			return nil, fmt.Errorf("hive: aggregate %s not allowed in this context", v.Name)
		}
		return e.compileFunc(ec, v, sc)

	case *sqlparser.SubqueryExpr:
		return e.compileSubquery(ec, v, sc)

	case *sqlparser.Placeholder:
		return nil, fmt.Errorf("hive: unbound '?' placeholder (bind arguments with a prepared statement)")

	default:
		return nil, fmt.Errorf("hive: unsupported expression %T", x)
	}
}

func (e *Engine) compileBinary(ec *ExecContext, v *sqlparser.BinaryExpr, sc *scope) (evalFn, error) {
	lf, err := e.compileExpr(ec, v.L, sc)
	if err != nil {
		return nil, err
	}
	rf, err := e.compileExpr(ec, v.R, sc)
	if err != nil {
		return nil, err
	}
	op := v.Op
	switch op {
	case "AND":
		return func(row datum.Row) (datum.Datum, error) {
			l, err := lf(row)
			if err != nil {
				return datum.Null, err
			}
			if !l.IsNull() && !l.Truthy() {
				return datum.Bool(false), nil
			}
			r, err := rf(row)
			if err != nil {
				return datum.Null, err
			}
			if !r.IsNull() && !r.Truthy() {
				return datum.Bool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return datum.Null, nil
			}
			return datum.Bool(true), nil
		}, nil
	case "OR":
		return func(row datum.Row) (datum.Datum, error) {
			l, err := lf(row)
			if err != nil {
				return datum.Null, err
			}
			if l.Truthy() {
				return datum.Bool(true), nil
			}
			r, err := rf(row)
			if err != nil {
				return datum.Null, err
			}
			if r.Truthy() {
				return datum.Bool(true), nil
			}
			if l.IsNull() || r.IsNull() {
				return datum.Null, nil
			}
			return datum.Bool(false), nil
		}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		return func(row datum.Row) (datum.Datum, error) {
			l, err := lf(row)
			if err != nil {
				return datum.Null, err
			}
			r, err := rf(row)
			if err != nil {
				return datum.Null, err
			}
			if l.IsNull() || r.IsNull() {
				return datum.Null, nil
			}
			c := datum.Compare(l, r)
			var b bool
			switch op {
			case "=":
				b = c == 0
			case "!=":
				b = c != 0
			case "<":
				b = c < 0
			case "<=":
				b = c <= 0
			case ">":
				b = c > 0
			case ">=":
				b = c >= 0
			}
			return datum.Bool(b), nil
		}, nil
	case "+", "-", "*", "/", "%":
		return func(row datum.Row) (datum.Datum, error) {
			l, err := lf(row)
			if err != nil {
				return datum.Null, err
			}
			r, err := rf(row)
			if err != nil {
				return datum.Null, err
			}
			if l.IsNull() || r.IsNull() {
				return datum.Null, nil
			}
			return arith(op, l, r)
		}, nil
	default:
		return nil, fmt.Errorf("hive: unknown operator %q", op)
	}
}

// arith applies an arithmetic operator with Hive-like typing:
// int op int stays int (except /), anything with a float is float.
func arith(op string, l, r datum.Datum) (datum.Datum, error) {
	if l.K == datum.KindInt && r.K == datum.KindInt && op != "/" {
		a, b := l.I, r.I
		switch op {
		case "+":
			return datum.Int(a + b), nil
		case "-":
			return datum.Int(a - b), nil
		case "*":
			return datum.Int(a * b), nil
		case "%":
			if b == 0 {
				return datum.Null, nil
			}
			return datum.Int(a % b), nil
		}
	}
	a, okA := l.AsFloat()
	b, okB := r.AsFloat()
	if !okA || !okB {
		return datum.Null, nil
	}
	switch op {
	case "+":
		return datum.Float(a + b), nil
	case "-":
		return datum.Float(a - b), nil
	case "*":
		return datum.Float(a * b), nil
	case "/":
		if b == 0 {
			return datum.Null, nil
		}
		return datum.Float(a / b), nil
	case "%":
		if b == 0 {
			return datum.Null, nil
		}
		return datum.Float(math.Mod(a, b)), nil
	}
	return datum.Null, fmt.Errorf("hive: bad arithmetic op %q", op)
}

func (e *Engine) compileLike(ec *ExecContext, v *sqlparser.LikeExpr, sc *scope) (evalFn, error) {
	xf, err := e.compileExpr(ec, v.X, sc)
	if err != nil {
		return nil, err
	}
	// Fast path: literal pattern compiled once.
	if lit, ok := v.Pattern.(*sqlparser.Literal); ok && lit.Value.K == datum.KindString {
		re, err := likeToRegexp(lit.Value.S)
		if err != nil {
			return nil, err
		}
		not := v.Not
		return func(row datum.Row) (datum.Datum, error) {
			d, err := xf(row)
			if err != nil || d.IsNull() {
				return datum.Null, err
			}
			return datum.Bool(re.MatchString(d.String()) != not), nil
		}, nil
	}
	pf, err := e.compileExpr(ec, v.Pattern, sc)
	if err != nil {
		return nil, err
	}
	not := v.Not
	return func(row datum.Row) (datum.Datum, error) {
		d, err := xf(row)
		if err != nil || d.IsNull() {
			return datum.Null, err
		}
		p, err := pf(row)
		if err != nil || p.IsNull() {
			return datum.Null, err
		}
		re, err := likeToRegexp(p.String())
		if err != nil {
			return datum.Null, err
		}
		return datum.Bool(re.MatchString(d.String()) != not), nil
	}, nil
}

// likeToRegexp translates a SQL LIKE pattern to an anchored regexp.
func likeToRegexp(pattern string) (*regexp.Regexp, error) {
	var sb strings.Builder
	sb.WriteString("(?s)^")
	for _, r := range pattern {
		switch r {
		case '%':
			sb.WriteString(".*")
		case '_':
			sb.WriteString(".")
		default:
			sb.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	sb.WriteString("$")
	return regexp.Compile(sb.String())
}

func (e *Engine) compileCase(ec *ExecContext, v *sqlparser.CaseExpr, sc *scope) (evalFn, error) {
	var operand evalFn
	var err error
	if v.Operand != nil {
		operand, err = e.compileExpr(ec, v.Operand, sc)
		if err != nil {
			return nil, err
		}
	}
	conds := make([]evalFn, len(v.Whens))
	thens := make([]evalFn, len(v.Whens))
	for i, w := range v.Whens {
		conds[i], err = e.compileExpr(ec, w.Cond, sc)
		if err != nil {
			return nil, err
		}
		thens[i], err = e.compileExpr(ec, w.Then, sc)
		if err != nil {
			return nil, err
		}
	}
	var elseF evalFn
	if v.Else != nil {
		elseF, err = e.compileExpr(ec, v.Else, sc)
		if err != nil {
			return nil, err
		}
	}
	return func(row datum.Row) (datum.Datum, error) {
		var opVal datum.Datum
		if operand != nil {
			var err error
			opVal, err = operand(row)
			if err != nil {
				return datum.Null, err
			}
		}
		for i := range conds {
			c, err := conds[i](row)
			if err != nil {
				return datum.Null, err
			}
			match := false
			if operand != nil {
				match = !opVal.IsNull() && !c.IsNull() && datum.Compare(opVal, c) == 0
			} else {
				match = c.Truthy()
			}
			if match {
				return thens[i](row)
			}
		}
		if elseF != nil {
			return elseF(row)
		}
		return datum.Null, nil
	}, nil
}

func (e *Engine) compileFunc(ec *ExecContext, v *sqlparser.FuncCall, sc *scope) (evalFn, error) {
	args := make([]evalFn, len(v.Args))
	for i, a := range v.Args {
		f, err := e.compileExpr(ec, a, sc)
		if err != nil {
			return nil, err
		}
		args[i] = f
	}
	evalArgs := func(row datum.Row) ([]datum.Datum, error) {
		out := make([]datum.Datum, len(args))
		for i, f := range args {
			d, err := f(row)
			if err != nil {
				return nil, err
			}
			out[i] = d
		}
		return out, nil
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("hive: %s expects %d arguments, got %d", v.Name, n, len(args))
		}
		return nil
	}
	switch v.Name {
	case "IF":
		if err := need(3); err != nil {
			return nil, err
		}
		return func(row datum.Row) (datum.Datum, error) {
			c, err := args[0](row)
			if err != nil {
				return datum.Null, err
			}
			if c.Truthy() {
				return args[1](row)
			}
			return args[2](row)
		}, nil
	case "COALESCE", "NVL":
		if len(args) == 0 {
			return nil, fmt.Errorf("hive: %s needs arguments", v.Name)
		}
		return func(row datum.Row) (datum.Datum, error) {
			for _, f := range args {
				d, err := f(row)
				if err != nil {
					return datum.Null, err
				}
				if !d.IsNull() {
					return d, nil
				}
			}
			return datum.Null, nil
		}, nil
	case "CONCAT":
		return func(row datum.Row) (datum.Datum, error) {
			vals, err := evalArgs(row)
			if err != nil {
				return datum.Null, err
			}
			var sb strings.Builder
			for _, d := range vals {
				if d.IsNull() {
					return datum.Null, nil
				}
				sb.WriteString(d.String())
			}
			return datum.String_(sb.String()), nil
		}, nil
	case "LENGTH":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(row datum.Row) (datum.Datum, error) {
			d, err := args[0](row)
			if err != nil || d.IsNull() {
				return datum.Null, err
			}
			return datum.Int(int64(len(d.String()))), nil
		}, nil
	case "LOWER", "UPPER":
		if err := need(1); err != nil {
			return nil, err
		}
		up := v.Name == "UPPER"
		return func(row datum.Row) (datum.Datum, error) {
			d, err := args[0](row)
			if err != nil || d.IsNull() {
				return datum.Null, err
			}
			s := d.String()
			if up {
				return datum.String_(strings.ToUpper(s)), nil
			}
			return datum.String_(strings.ToLower(s)), nil
		}, nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("hive: SUBSTR expects 2 or 3 arguments")
		}
		return func(row datum.Row) (datum.Datum, error) {
			vals, err := evalArgs(row)
			if err != nil {
				return datum.Null, err
			}
			if vals[0].IsNull() || vals[1].IsNull() {
				return datum.Null, nil
			}
			s := vals[0].String()
			pos, _ := vals[1].AsInt()
			// 1-based; negative counts from the end (Hive semantics).
			start := int(pos)
			if start < 0 {
				start = len(s) + start + 1
			}
			if start < 1 {
				start = 1
			}
			if start > len(s) {
				return datum.String_(""), nil
			}
			out := s[start-1:]
			if len(vals) == 3 {
				if vals[2].IsNull() {
					return datum.Null, nil
				}
				n, _ := vals[2].AsInt()
				if n < 0 {
					n = 0
				}
				if int(n) < len(out) {
					out = out[:n]
				}
			}
			return datum.String_(out), nil
		}, nil
	case "ABS":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(row datum.Row) (datum.Datum, error) {
			d, err := args[0](row)
			if err != nil || d.IsNull() {
				return datum.Null, err
			}
			if d.K == datum.KindInt {
				if d.I < 0 {
					return datum.Int(-d.I), nil
				}
				return d, nil
			}
			f, ok := d.AsFloat()
			if !ok {
				return datum.Null, nil
			}
			return datum.Float(math.Abs(f)), nil
		}, nil
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return nil, fmt.Errorf("hive: ROUND expects 1 or 2 arguments")
		}
		return func(row datum.Row) (datum.Datum, error) {
			vals, err := evalArgs(row)
			if err != nil {
				return datum.Null, err
			}
			if vals[0].IsNull() {
				return datum.Null, nil
			}
			f, ok := vals[0].AsFloat()
			if !ok {
				return datum.Null, nil
			}
			scale := 0.0
			if len(vals) == 2 {
				n, _ := vals[1].AsInt()
				scale = float64(n)
			}
			p := math.Pow(10, scale)
			return datum.Float(math.Round(f*p) / p), nil
		}, nil
	case "FLOOR", "CEIL", "CEILING":
		if err := need(1); err != nil {
			return nil, err
		}
		ceil := v.Name != "FLOOR"
		return func(row datum.Row) (datum.Datum, error) {
			d, err := args[0](row)
			if err != nil || d.IsNull() {
				return datum.Null, err
			}
			f, ok := d.AsFloat()
			if !ok {
				return datum.Null, nil
			}
			if ceil {
				return datum.Int(int64(math.Ceil(f))), nil
			}
			return datum.Int(int64(math.Floor(f))), nil
		}, nil
	case "YEAR", "MONTH", "DAY":
		if err := need(1); err != nil {
			return nil, err
		}
		var lo, hi int
		switch v.Name {
		case "YEAR":
			lo, hi = 0, 4
		case "MONTH":
			lo, hi = 5, 7
		default:
			lo, hi = 8, 10
		}
		return func(row datum.Row) (datum.Datum, error) {
			d, err := args[0](row)
			if err != nil || d.IsNull() {
				return datum.Null, err
			}
			s := d.String()
			if len(s) < hi {
				return datum.Null, nil
			}
			var n int64
			for _, c := range s[lo:hi] {
				if c < '0' || c > '9' {
					return datum.Null, nil
				}
				n = n*10 + int64(c-'0')
			}
			return datum.Int(n), nil
		}, nil
	default:
		return nil, fmt.Errorf("hive: unknown function %s", v.Name)
	}
}

// ---- Scalar subqueries ----
//
// The paper's Listing 1 assigns from a correlated aggregate subquery:
//
//	SET t.QRYHS = (SELECT SUM(k.tqyhs) FROM tj_tqxs_r k
//	               WHERE t.rq = k.tjrq AND k.glfs = t.glfs ...)
//
// The engine decorrelates that pattern the same way the paper's
// Listing 2 does by hand: run the inner query once, grouped by the
// correlation keys, and hash-join against the outer rows.

type decorrelated struct {
	once     sync.Once
	err      error
	results  map[string]datum.Datum
	innerSel *sqlparser.SelectStmt
	outerFns []evalFn
	engine   *Engine
	ec       *ExecContext
}

func (e *Engine) compileSubquery(ec *ExecContext, v *sqlparser.SubqueryExpr, sc *scope) (evalFn, error) {
	sel := v.Select
	// Uncorrelated subquery: run once lazily, use the first row.
	if dec, ok, err := e.tryDecorrelate(ec, sel, sc); err != nil {
		return nil, err
	} else if ok {
		return dec, nil
	}
	if !e.isCorrelated(sel, sc) {
		var once sync.Once
		var val datum.Datum
		var runErr error
		return func(datum.Row) (datum.Datum, error) {
			once.Do(func() {
				rs, err := e.runSelect(ec, sel, nil)
				if err != nil {
					runErr = err
					return
				}
				if len(rs.Rows) == 0 {
					val = datum.Null
					return
				}
				if len(rs.Rows[0]) != 1 {
					runErr = fmt.Errorf("hive: scalar subquery must return one column")
					return
				}
				val = rs.Rows[0][0]
			})
			return val, runErr
		}, nil
	}
	return nil, fmt.Errorf("hive: unsupported correlated subquery (only single-table, equality-correlated aggregate subqueries are decorrelated): %s", sel)
}

// isCorrelated reports whether the subquery references columns of the
// outer scope.
func (e *Engine) isCorrelated(sel *sqlparser.SelectStmt, outer *scope) bool {
	inner, ok := e.innerScopeFor(sel)
	if !ok {
		// Cannot resolve inner scope conservatively; treat references
		// as possibly correlated only if resolution in outer works.
		inner = &scope{}
	}
	correlated := false
	checkExpr := func(x sqlparser.Expr) {
		sqlparser.WalkExpr(x, func(n sqlparser.Expr) bool {
			if ref, okRef := n.(*sqlparser.ColumnRef); okRef {
				if _, err := inner.resolve(ref); err != nil {
					if _, err2 := outer.resolve(ref); err2 == nil {
						correlated = true
					}
				}
			}
			return !correlated
		})
	}
	for _, it := range sel.Items {
		checkExpr(it.Expr)
	}
	if sel.Where != nil {
		checkExpr(sel.Where)
	}
	return correlated
}

// innerScopeFor builds the resolution scope of a subquery FROM clause
// without executing it. Only single-table FROMs are supported here.
func (e *Engine) innerScopeFor(sel *sqlparser.SelectStmt) (*scope, bool) {
	tn, ok := sel.From.(*sqlparser.TableName)
	if !ok {
		return nil, false
	}
	desc, err := e.MS.Get(tn.Name)
	if err != nil {
		return nil, false
	}
	alias := tn.Alias
	if alias == "" {
		alias = tn.Name
	}
	sc := newScope(alias, desc.Schema)
	// Allow both alias-qualified and unqualified references.
	return sc, true
}

// tryDecorrelate recognizes the pattern:
//
//	(SELECT AGG(expr) FROM t [alias] WHERE conj AND conj ...)
//
// where each conjunct is either inner-only (residual filter) or an
// equality between an inner expression and an outer expression
// (correlation key). Returns an evalFn that lazily materializes the
// grouped inner query and then performs hash lookups per outer row.
func (e *Engine) tryDecorrelate(ec *ExecContext, sel *sqlparser.SelectStmt, outer *scope) (evalFn, bool, error) {
	if sel.From == nil || len(sel.Items) != 1 || sel.Distinct ||
		len(sel.GroupBy) != 0 || sel.Having != nil || len(sel.OrderBy) != 0 ||
		sel.Limit >= 0 || sel.LimitExpr != nil {
		return nil, false, nil
	}
	inner, ok := e.innerScopeFor(sel)
	if !ok {
		return nil, false, nil
	}
	item := sel.Items[0].Expr
	if !sqlparser.ContainsAggregate(item) {
		return nil, false, nil
	}
	// The aggregated expression must be inner-only.
	if !refsResolveIn(item, inner) {
		return nil, false, nil
	}

	var residual []sqlparser.Expr
	var innerKeys, outerKeys []sqlparser.Expr
	for _, conj := range sqlparser.SplitConjuncts(sel.Where) {
		if refsResolveIn(conj, inner) {
			residual = append(residual, conj)
			continue
		}
		bin, okBin := conj.(*sqlparser.BinaryExpr)
		if !okBin || bin.Op != "=" {
			return nil, false, nil
		}
		switch {
		case refsResolveIn(bin.L, inner) && refsResolveIn(bin.R, outer):
			innerKeys = append(innerKeys, bin.L)
			outerKeys = append(outerKeys, bin.R)
		case refsResolveIn(bin.R, inner) && refsResolveIn(bin.L, outer):
			innerKeys = append(innerKeys, bin.R)
			outerKeys = append(outerKeys, bin.L)
		default:
			return nil, false, nil
		}
	}
	if len(innerKeys) == 0 {
		return nil, false, nil // uncorrelated; handled elsewhere
	}

	// Build the decorrelated query:
	//   SELECT k1, ..., kn, <item> FROM t WHERE residual GROUP BY k1..kn
	dec := &sqlparser.SelectStmt{
		Items: make([]sqlparser.SelectItem, 0, len(innerKeys)+1),
		From:  sel.From,
		Where: sqlparser.CombineConjuncts(residual),
		Limit: -1,
	}
	for i, k := range innerKeys {
		dec.Items = append(dec.Items, sqlparser.SelectItem{Expr: k, Alias: fmt.Sprintf("__k%d", i)})
		dec.GroupBy = append(dec.GroupBy, k)
	}
	dec.Items = append(dec.Items, sqlparser.SelectItem{Expr: item, Alias: "__v"})

	outerFns := make([]evalFn, len(outerKeys))
	for i, k := range outerKeys {
		f, err := e.compileExpr(ec, k, outer)
		if err != nil {
			return nil, false, err
		}
		outerFns[i] = f
	}

	d := &decorrelated{innerSel: dec, outerFns: outerFns, engine: e, ec: ec}
	return d.eval, true, nil
}

// refsResolveIn reports whether every column reference of x resolves
// in the given scope (expressions without references resolve
// anywhere, but such conjuncts are classified as residual first).
func refsResolveIn(x sqlparser.Expr, sc *scope) bool {
	okAll := true
	sqlparser.WalkExpr(x, func(n sqlparser.Expr) bool {
		if ref, isRef := n.(*sqlparser.ColumnRef); isRef {
			if _, err := sc.resolve(ref); err != nil {
				okAll = false
			}
		}
		return okAll
	})
	return okAll
}

func (d *decorrelated) eval(row datum.Row) (datum.Datum, error) {
	d.once.Do(func() {
		rs, err := d.engine.runSelect(d.ec, d.innerSel, nil)
		if err != nil {
			d.err = fmt.Errorf("hive: decorrelated subquery: %w", err)
			return
		}
		d.results = make(map[string]datum.Datum, len(rs.Rows))
		nk := len(d.outerFns)
		for _, r := range rs.Rows {
			key := datum.SortableRowKey(nil, r[:nk])
			d.results[string(key)] = r[nk]
		}
	})
	if d.err != nil {
		return datum.Null, d.err
	}
	keyRow := make(datum.Row, len(d.outerFns))
	for i, f := range d.outerFns {
		v, err := f(row)
		if err != nil {
			return datum.Null, err
		}
		if v.IsNull() {
			return datum.Null, nil // NULL keys never match
		}
		keyRow[i] = v
	}
	key := datum.SortableRowKey(nil, keyRow)
	if v, ok := d.results[string(key)]; ok {
		return v, nil
	}
	return datum.Null, nil // empty group → NULL, SQL scalar subquery semantics
}
