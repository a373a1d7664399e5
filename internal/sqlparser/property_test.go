package sqlparser

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dualtable/internal/datum"
)

// Property test: randomly generated expression trees render to SQL
// that re-parses to the identical canonical form (String fixpoint).

func randExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return &Literal{Value: datum.Int(rng.Int63n(1000))}
		case 1:
			return &Literal{Value: datum.String_(fmt.Sprintf("s%d", rng.Intn(50)))}
		case 2:
			return &ColumnRef{Name: fmt.Sprintf("c%d", rng.Intn(8))}
		default:
			return &ColumnRef{Table: "t", Name: fmt.Sprintf("c%d", rng.Intn(8))}
		}
	}
	switch rng.Intn(10) {
	case 0, 1, 2:
		ops := []string{"+", "-", "*", "/", "%", "=", "!=", "<", "<=", ">", ">=", "AND", "OR"}
		return &BinaryExpr{
			Op: ops[rng.Intn(len(ops))],
			L:  randExpr(rng, depth-1),
			R:  randExpr(rng, depth-1),
		}
	case 3:
		op := "-"
		if rng.Intn(2) == 0 {
			op = "NOT"
		}
		x := randExpr(rng, depth-1)
		// Unary minus of a literal folds during parsing; avoid.
		if op == "-" {
			if _, isLit := x.(*Literal); isLit {
				x = &ColumnRef{Name: "c0"}
			}
		}
		return &UnaryExpr{Op: op, X: x}
	case 4:
		return &IsNullExpr{X: randExpr(rng, depth-1), Not: rng.Intn(2) == 0}
	case 5:
		n := rng.Intn(3) + 1
		list := make([]Expr, n)
		for i := range list {
			list[i] = randExpr(rng, 0)
		}
		return &InExpr{X: randExpr(rng, depth-1), List: list, Not: rng.Intn(2) == 0}
	case 6:
		return &BetweenExpr{
			X:   randExpr(rng, depth-1),
			Lo:  randExpr(rng, 0),
			Hi:  randExpr(rng, 0),
			Not: rng.Intn(2) == 0,
		}
	case 7:
		return &LikeExpr{
			X:       randExpr(rng, depth-1),
			Pattern: &Literal{Value: datum.String_("a%_z")},
			Not:     rng.Intn(2) == 0,
		}
	case 8:
		names := []string{"COALESCE", "CONCAT", "IF", "SUM", "MAX"}
		name := names[rng.Intn(len(names))]
		argc := 1 + rng.Intn(2)
		if name == "IF" {
			argc = 3
		}
		args := make([]Expr, argc)
		for i := range args {
			args[i] = randExpr(rng, depth-1)
		}
		return &FuncCall{Name: name, Args: args}
	default:
		ce := &CaseExpr{}
		for i := 0; i < 1+rng.Intn(2); i++ {
			ce.Whens = append(ce.Whens, WhenClause{
				Cond: randExpr(rng, depth-1),
				Then: randExpr(rng, 0),
			})
		}
		if rng.Intn(2) == 0 {
			ce.Else = randExpr(rng, 0)
		}
		return ce
	}
}

func TestPropertyRandomExprFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(20150413))
	for i := 0; i < 500; i++ {
		expr := randExpr(rng, 3)
		sql := "SELECT " + expr.String() + " FROM t"
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("iteration %d: parse %q: %v", i, sql, err)
		}
		r1 := stmt.String()
		stmt2, err := Parse(r1)
		if err != nil {
			t.Fatalf("iteration %d: re-parse %q: %v", i, r1, err)
		}
		if r2 := stmt2.String(); r1 != r2 {
			t.Fatalf("iteration %d: not a fixpoint:\n%s\n%s", i, r1, r2)
		}
	}
}

func TestPropertyRandomStatementsFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		cond := randExpr(rng, 2)
		var sql string
		switch rng.Intn(4) {
		case 0:
			sql = fmt.Sprintf("UPDATE t SET c0 = %s WHERE %s", randExpr(rng, 1), cond)
		case 1:
			sql = fmt.Sprintf("DELETE FROM t WHERE %s", cond)
		case 2:
			sql = fmt.Sprintf("SELECT c0, %s AS x FROM t WHERE %s GROUP BY c0 HAVING COUNT(*) > 1 ORDER BY c0 DESC LIMIT %d",
				randExpr(rng, 1), cond, rng.Intn(100))
		default:
			sql = fmt.Sprintf("INSERT OVERWRITE TABLE t SELECT c1 FROM s WHERE %s", cond)
		}
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("iteration %d: parse %q: %v", i, sql, err)
		}
		r1 := stmt.String()
		stmt2, err := Parse(r1)
		if err != nil {
			t.Fatalf("iteration %d: re-parse %q: %v", i, r1, err)
		}
		if r2 := stmt2.String(); r1 != r2 {
			t.Fatalf("iteration %d: not a fixpoint:\n%s\n%s", i, r1, r2)
		}
	}
}

// The lexer never panics and either tokenizes or errors on arbitrary
// byte strings.
func TestPropertyLexerTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(40)
		b := make([]byte, n)
		for j := range b {
			// Bias toward SQL-ish characters.
			const chars = "abcSELECT*,.;()'=<>!0123456789 \n\t-/%`_"
			b[j] = chars[rng.Intn(len(chars))]
		}
		toks, err := drain(string(b))
		if err == nil && len(toks) == 0 {
			t.Fatalf("no tokens and no error for %q", b)
		}
		if err == nil && toks[len(toks)-1].Kind != tokEOF {
			t.Fatalf("missing EOF for %q", b)
		}
	}
}

func TestKeywordsAreUpperCased(t *testing.T) {
	toks, err := drain("select Update dElEtE")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks[:3] {
		if tok.Kind != tokKeyword || tok.Text != strings.ToUpper(tok.Text) {
			t.Errorf("keyword token = %+v", tok)
		}
	}
}
