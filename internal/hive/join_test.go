package hive

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/sqlparser"
)

// The pushdown rule table. Every storage runs the same planner, so a
// conjunct pushed where it must not be answers wrongly on all of them
// alike and no cross-storage differential can see it. This test can: it
// compares the engine with a nested-loop join written here, ON and WHERE
// as Go closures over the loaded rows, for every join type × every place
// a single-input conjunct can stand, and reads through EXPLAIN where the
// planner put each conjunct.

var (
	null = datum.Null
	i64  = datum.Int
)

// Join keys and filter columns hold NULLs, keys repeat on both sides.
var (
	jlRows = []datum.Row{ // id, k, v
		{i64(1), i64(1), i64(5)}, {i64(2), i64(1), i64(0)}, {i64(3), i64(2), null},
		{i64(4), null, i64(7)}, {i64(5), i64(3), i64(9)}, {i64(6), i64(9), i64(2)}, {i64(7), null, null},
	}
	jrRows = []datum.Row{ // k, w, name
		{i64(1), i64(10), datum.String_("a")}, {i64(1), null, datum.String_("b")}, {i64(2), i64(30), datum.String_("c")},
		{null, i64(40), datum.String_("d")}, {i64(3), i64(1), datum.String_("e")}, {i64(8), i64(60), null}, {i64(3), i64(70), datum.String_("f")},
	}
	jcRows = []datum.Row{ // k, c
		{i64(1), i64(100)}, {i64(2), i64(200)}, {i64(2), null}, {null, i64(400)}, {i64(3), i64(3)}, {i64(7), i64(700)},
	}
)

// Three-valued helpers for the closures: a Bool datum or NULL.
func cmp3(a, b datum.Datum, ok func(c int) bool) datum.Datum {
	if a.IsNull() || b.IsNull() {
		return null
	}
	return datum.Bool(ok(datum.Compare(a, b)))
}
func eq3(a, b datum.Datum) datum.Datum { return cmp3(a, b, func(c int) bool { return c == 0 }) }
func gt3(a, b datum.Datum) datum.Datum { return cmp3(a, b, func(c int) bool { return c > 0 }) }
func and3(xs ...datum.Datum) datum.Datum {
	out := datum.Bool(true)
	for _, x := range xs {
		if !x.IsNull() && !x.B {
			return datum.Bool(false)
		}
		if x.IsNull() {
			out = null
		}
	}
	return out
}

// nestedLoop is the oracle's join: every pair that passes on, then the
// unmatched rows of a preserved side, null-extended.
func nestedLoop(typ sqlparser.JoinType, lefts, rights []datum.Row, lw, rw int, on func(pair datum.Row) datum.Datum) []datum.Row {
	var out []datum.Row
	leftHit, rightHit := make([]bool, len(lefts)), make([]bool, len(rights))
	for li, l := range lefts {
		for ri, r := range rights {
			pair := slices.Concat(l, r)
			if typ == sqlparser.JoinCross || on(pair).Truthy() {
				leftHit[li], rightHit[ri] = true, true
				out = append(out, pair)
			}
		}
	}
	for li, l := range lefts {
		if !leftHit[li] && (typ == sqlparser.JoinLeft || typ == sqlparser.JoinFull) {
			out = append(out, slices.Concat(l, make(datum.Row, rw)))
		}
	}
	for ri, r := range rights {
		if !rightHit[ri] && (typ == sqlparser.JoinRight || typ == sqlparser.JoinFull) {
			out = append(out, slices.Concat(make(datum.Row, lw), r))
		}
	}
	return out
}

// pushedTo reads an EXPLAIN: the conjuncts pushed to the named input.
func pushedTo(t *testing.T, plan []string, input string) string {
	t.Helper()
	for _, line := range plan {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "input "+input+": "); ok {
			_, pushed, _ := strings.Cut(rest, "pushed ")
			pushed, _, _ = strings.Cut(pushed, ";")
			return pushed
		}
	}
	t.Fatalf("no input %s in plan:\n%s", input, strings.Join(plan, "\n"))
	return ""
}

// planLines returns an EXPLAIN's lines in order.
func planLines(rs *ResultSet) []string {
	out := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		out[i] = r[0].S
	}
	return out
}

func TestJoinPushdownRuleTable(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE jl (id BIGINT, k BIGINT, v BIGINT) STORED AS ORC")
	mustExec(t, e, "CREATE TABLE jr (k BIGINT, w BIGINT, name STRING) STORED AS ORC")
	mustExec(t, e, "CREATE TABLE jc (k BIGINT, c BIGINT) STORED AS ORC")
	for name, rows := range map[string][]datum.Row{"jl": jlRows, "jr": jrRows, "jc": jcRows} {
		cp := make([]datum.Row, len(rows))
		for i, r := range rows {
			cp[i] = slices.Clone(r)
		}
		if _, err := e.BulkLoad(name, cp); err != nil {
			t.Fatal(err)
		}
	}
	// The rules, as literals: may a conjunct over the left (right) input
	// alone sink into it, from WHERE and from ON.
	type sides struct{ left, right bool }
	types := []struct {
		typ       sqlparser.JoinType
		where, on sides
	}{
		{sqlparser.JoinInner, sides{true, true}, sides{true, true}},
		{sqlparser.JoinLeft, sides{true, false}, sides{false, true}},
		{sqlparser.JoinRight, sides{false, true}, sides{true, false}},
		{sqlparser.JoinFull, sides{false, false}, sides{false, false}},
		{sqlparser.JoinCross, sides{true, true}, sides{}},
	}
	// Pair layout: l.id l.k l.v r.k r.w r.name [c.k c.c].
	keyOn := func(p datum.Row) datum.Datum { return eq3(p[1], p[3]) }
	pass := func(datum.Row) datum.Datum { return datum.Bool(true) }
	minC := i64(3) // SELECT MIN(c) FROM jc
	shapes := []struct {
		name      string
		on, where string                        // SQL, "" = none
		onFn      func(p datum.Row) datum.Datum // the whole ON
		whereFn   func(p datum.Row) datum.Datum
		// The single-input conjuncts, as EXPLAIN prints them, and where
		// they stand.
		leftConj, rightConj string
		inOn                bool
		never               string // a conjunct no rule lets sink
	}{
		{name: "where on left", where: "l.v > 1", onFn: keyOn,
			whereFn: func(p datum.Row) datum.Datum { return gt3(p[2], i64(1)) }, leftConj: "(l.v > 1)"},
		{name: "where on right", where: "r.w > 5", onFn: keyOn,
			whereFn: func(p datum.Row) datum.Datum { return gt3(p[4], i64(5)) }, rightConj: "(r.w > 5)"},
		{name: "where on both", where: "l.v > 1 AND r.w > 5 AND l.v < r.w", onFn: keyOn,
			whereFn: func(p datum.Row) datum.Datum {
				return and3(gt3(p[2], i64(1)), gt3(p[4], i64(5)), gt3(p[4], p[2]))
			}, leftConj: "(l.v > 1)", rightConj: "(r.w > 5)", never: "(l.v < r.w)"},
		{name: "anti-join IS NULL", where: "r.name IS NULL AND l.id IS NOT NULL", onFn: keyOn,
			whereFn:  func(p datum.Row) datum.Datum { return datum.Bool(p[5].IsNull() && !p[0].IsNull()) },
			leftConj: "(l.id IS NOT NULL)", rightConj: "(r.name IS NULL)"},
		{name: "on conjunct over left", on: "l.v > 1",
			onFn:     func(p datum.Row) datum.Datum { return and3(keyOn(p), gt3(p[2], i64(1))) },
			whereFn:  pass,
			leftConj: "(l.v > 1)", inOn: true},
		{name: "on conjunct over right", on: "r.w > 5",
			onFn:      func(p datum.Row) datum.Datum { return and3(keyOn(p), gt3(p[4], i64(5))) },
			whereFn:   pass,
			rightConj: "(r.w > 5)", inOn: true},
		{name: "where with scalar subquery", where: "l.v > (SELECT MIN(c) FROM jc) AND r.w > 5", onFn: keyOn,
			whereFn:   func(p datum.Row) datum.Datum { return and3(gt3(p[2], minC), gt3(p[4], i64(5))) },
			rightConj: "(r.w > 5)", never: "(l.v > (SELECT MIN(c) FROM jc))"},
	}
	const cols = "l.id, l.k, l.v, r.k, r.w, r.name"
	render := func(rows []datum.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		slices.Sort(out)
		return out
	}
	for _, ty := range types {
		for _, sh := range shapes {
			if ty.typ == sqlparser.JoinCross && sh.on != "" {
				continue // CROSS JOIN has no ON
			}
			name := fmt.Sprintf("%s/%s", ty.typ, sh.name)
			q := fmt.Sprintf("SELECT %s FROM jl l %s jr r", cols, ty.typ)
			if ty.typ != sqlparser.JoinCross {
				q += " ON l.k = r.k"
				if sh.on != "" {
					q += " AND " + sh.on
				}
			}
			if sh.where != "" {
				q += " WHERE " + sh.where
			}
			var want []datum.Row
			for _, p := range nestedLoop(ty.typ, jlRows, jrRows, 3, 3, sh.onFn) {
				if sh.whereFn(p).Truthy() {
					want = append(want, p)
				}
			}
			if got := render(mustExec(t, e, q).Rows); !slices.Equal(got, render(want)) {
				t.Errorf("%s: %s\n got  %q\n want %q", name, q, got, render(want))
			}
			plan := planLines(mustExec(t, e, "EXPLAIN "+q))
			legal := ty.where
			if sh.inOn {
				legal = ty.on
			}
			left, right := pushedTo(t, plan, "jl l"), pushedTo(t, plan, "jr r")
			if sh.leftConj != "" && strings.Contains(left, sh.leftConj) != legal.left {
				t.Errorf("%s: %s pushed to the left input: %v, the rule says %v\n%s", name, sh.leftConj, !legal.left, legal.left, strings.Join(plan, "\n"))
			}
			if sh.rightConj != "" && strings.Contains(right, sh.rightConj) != legal.right {
				t.Errorf("%s: %s pushed to the right input: %v, the rule says %v\n%s", name, sh.rightConj, !legal.right, legal.right, strings.Join(plan, "\n"))
			}
			if sh.never != "" && (strings.Contains(left, sh.never) || strings.Contains(right, sh.never)) {
				t.Errorf("%s: %s was pushed below the join\n%s", name, sh.never, strings.Join(plan, "\n"))
			}
		}
		if ty.typ == sqlparser.JoinCross {
			continue
		}
		// Three-way, a conjunct per table: the inner join is itself the
		// left input of the outer one, so a conjunct sinks through two
		// levels or stops at the first outer join in its way.
		name := fmt.Sprintf("%s/three-way", ty.typ)
		q := fmt.Sprintf("SELECT %s, c.k, c.c FROM jl l %[2]s jr r ON l.k = r.k %[2]s jc c ON r.k = c.k"+
			" WHERE l.v > 1 AND r.w > 5 AND c.c > 50", cols, ty.typ)
		inner := nestedLoop(ty.typ, jlRows, jrRows, 3, 3, keyOn)
		var want []datum.Row
		for _, p := range nestedLoop(ty.typ, inner, jcRows, 6, 2, func(p datum.Row) datum.Datum { return eq3(p[3], p[6]) }) {
			if and3(gt3(p[2], i64(1)), gt3(p[4], i64(5)), gt3(p[7], i64(50))).Truthy() {
				want = append(want, p)
			}
		}
		if got := render(mustExec(t, e, q).Rows); !slices.Equal(got, render(want)) {
			t.Errorf("%s: %s\n got  %q\n want %q", name, q, got, render(want))
		}
		plan := planLines(mustExec(t, e, "EXPLAIN "+q))
		// l sits below two joins' left sides, r below a right then a left,
		// c below one right.
		for _, in := range []struct {
			input, conj string
			legal       bool
		}{
			{"jl l", "(l.v > 1)", ty.where.left},
			{"jr r", "(r.w > 5)", ty.where.left && ty.where.right},
			{"jc c", "(c.c > 50)", ty.where.right},
		} {
			if got := strings.Contains(pushedTo(t, plan, in.input), in.conj); got != in.legal {
				t.Errorf("%s: %s pushed to %s: %v, the rule says %v\n%s", name, in.conj, in.input, got, in.legal, strings.Join(plan, "\n"))
			}
		}
	}
}
