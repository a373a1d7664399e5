package hive

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/dfs"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/sim"
)

func testEngine(t testing.TB) *Engine {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 20})
	kv, err := kvstore.NewCluster(fs, "/hbase")
	if err != nil {
		t.Fatal(err)
	}
	mr := mapred.NewCluster(sim.GridCluster())
	mr.Parallelism = 4
	e, err := NewEngine(Config{FS: fs, KV: kv, MR: mr})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustExec(t *testing.T, e *Engine, sql string) *ResultSet {
	t.Helper()
	rs, err := e.Execute(sql)
	if err != nil {
		t.Fatalf("Execute(%s): %v", sql, err)
	}
	return rs
}

// rowsAsStrings renders result rows for order-insensitive comparison.
func rowsAsStrings(rs *ResultSet) []string {
	out := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func seedEmployees(t *testing.T, e *Engine, storage string) {
	t.Helper()
	mustExec(t, e, fmt.Sprintf(
		"CREATE TABLE emp (id BIGINT, name STRING, dept STRING, salary DOUBLE) STORED AS %s", storage))
	mustExec(t, e, `INSERT INTO emp VALUES
		(1, 'alice', 'eng', 100.0),
		(2, 'bob', 'eng', 90.0),
		(3, 'carol', 'sales', 80.0),
		(4, 'dave', 'sales', 70.0),
		(5, 'eve', 'hr', 60.0)`)
}

func TestCreateInsertSelectORC(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	rs := mustExec(t, e, "SELECT name FROM emp WHERE salary >= 80 ORDER BY name")
	want := []string{"alice", "bob", "carol"}
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	for i, w := range want {
		if rs.Rows[i][0].S != w {
			t.Errorf("row %d = %v, want %s", i, rs.Rows[i], w)
		}
	}
	if rs.SimSeconds <= 0 {
		t.Error("no simulated time")
	}
}

func TestSelectStorageParity(t *testing.T) {
	// The same query must return identical results on ORC, HBASE and
	// TEXTFILE storage.
	queries := []string{
		"SELECT * FROM emp",
		"SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept",
		"SELECT name FROM emp WHERE dept = 'eng' AND salary > 95",
		"SELECT COUNT(*) FROM emp",
	}
	var results [][]string
	for _, storage := range []string{"ORC", "HBASE", "TEXTFILE"} {
		e := testEngine(t)
		seedEmployees(t, e, storage)
		var sr []string
		for _, q := range queries {
			sr = append(sr, strings.Join(rowsAsStrings(mustExec(t, e, q)), ";"))
		}
		results = append(results, sr)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("storage parity broken:\nORC:   %v\nother: %v", results[0], results[i])
		}
	}
}

func TestAggregates(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	rs := mustExec(t, e, `SELECT dept, COUNT(*) c, SUM(salary) s, AVG(salary) a, MIN(salary), MAX(salary)
		FROM emp GROUP BY dept ORDER BY dept`)
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	// eng: 2 rows, sum 190, avg 95, min 90, max 100.
	eng := rs.Rows[0]
	if eng[0].S != "eng" || eng[1].I != 2 || eng[2].F != 190 || eng[3].F != 95 || eng[4].F != 90 || eng[5].F != 100 {
		t.Errorf("eng = %v", eng)
	}
	// Global aggregate without GROUP BY.
	rs = mustExec(t, e, "SELECT COUNT(*), SUM(salary) FROM emp")
	if rs.Rows[0][0].I != 5 || rs.Rows[0][1].F != 400 {
		t.Errorf("global agg = %v", rs.Rows[0])
	}
	// Aggregate over empty input yields one row (COUNT=0, SUM=NULL).
	rs = mustExec(t, e, "SELECT COUNT(*), SUM(salary) FROM emp WHERE salary > 1000")
	if rs.Rows[0][0].I != 0 || !rs.Rows[0][1].IsNull() {
		t.Errorf("empty agg = %v", rs.Rows[0])
	}
}

func TestCountDistinct(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	rs := mustExec(t, e, "SELECT COUNT(DISTINCT dept) FROM emp")
	if rs.Rows[0][0].I != 3 {
		t.Errorf("count distinct = %v", rs.Rows[0])
	}
}

// TestAggregateAnswerIgnoresUnrelatedDistinct: a DISTINCT aggregate in
// the select list routes the query through the raw-value job instead of
// the partial-aggregate job; SUM/AVG/MIN/MAX/COUNT of the other columns
// must not notice. Non-numeric strings contribute 0 to SUM and AVG's
// numerator (Hive casts them to NULL and skips them) and AVG still
// counts them — the partial path's long-standing answer, now the only
// one.
func TestAggregateAnswerIgnoresUnrelatedDistinct(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE sa (g BIGINT, s STRING, n BIGINT) STORED AS ORC")
	mustExec(t, e, "INSERT INTO sa VALUES (1, 'a', 1), (1, 'b', 2), (2, 'c', 3), (3, '12', 4), (3, 'x', 5), (4, NULL, 6)")
	const aggs = "SUM(s), AVG(s), MIN(s), MAX(s), COUNT(s), SUM(n)"
	want := []string{
		"1\t0\t0\ta\tb\t2\t3",
		"2\t0\t0\tc\tc\t1\t3",
		"3\t12\t6\t12\tx\t2\t9",
		"4\tNULL\tNULL\tNULL\tNULL\t0\t6",
	}
	plain := rowsAsStrings(mustExec(t, e, "SELECT g, "+aggs+" FROM sa GROUP BY g ORDER BY g"))
	if !slices.Equal(plain, want) {
		t.Errorf("plain aggregates = %q, want %q", plain, want)
	}
	rs := mustExec(t, e, "SELECT g, "+aggs+", COUNT(DISTINCT n) FROM sa GROUP BY g ORDER BY g")
	for i := range rs.Rows {
		rs.Rows[i] = rs.Rows[i][:len(rs.Rows[i])-1]
	}
	if beside := rowsAsStrings(rs); !slices.Equal(beside, want) {
		t.Errorf("beside COUNT(DISTINCT n) = %q, want %q", beside, want)
	}
}

func TestHaving(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	rs := mustExec(t, e, "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 1 ORDER BY dept")
	if len(rs.Rows) != 2 || rs.Rows[0][0].S != "eng" || rs.Rows[1][0].S != "sales" {
		t.Errorf("having = %v", rs.Rows)
	}
}

func TestDistinct(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	rs := mustExec(t, e, "SELECT DISTINCT dept FROM emp")
	if len(rs.Rows) != 3 {
		t.Errorf("distinct = %v", rs.Rows)
	}
}

func TestJoinInner(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	mustExec(t, e, "CREATE TABLE dept (name STRING, head STRING)")
	mustExec(t, e, "INSERT INTO dept VALUES ('eng', 'zoe'), ('sales', 'yan')")
	rs := mustExec(t, e, `SELECT e.name, d.head FROM emp e JOIN dept d ON e.dept = d.name ORDER BY e.name`)
	if len(rs.Rows) != 4 {
		t.Fatalf("join rows = %v", rs.Rows)
	}
	if rs.Rows[0][0].S != "alice" || rs.Rows[0][1].S != "zoe" {
		t.Errorf("first = %v", rs.Rows[0])
	}
	// hr has no dept row → excluded by inner join.
	for _, r := range rs.Rows {
		if r[0].S == "eve" {
			t.Error("inner join leaked unmatched row")
		}
	}
}

func TestJoinLeftOuter(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	mustExec(t, e, "CREATE TABLE dept (name STRING, head STRING)")
	mustExec(t, e, "INSERT INTO dept VALUES ('eng', 'zoe'), ('sales', 'yan')")
	rs := mustExec(t, e, `SELECT e.name, d.head FROM emp e LEFT OUTER JOIN dept d ON e.dept = d.name ORDER BY e.name`)
	if len(rs.Rows) != 5 {
		t.Fatalf("left join rows = %v", rs.Rows)
	}
	// eve (hr) survives with NULL head.
	found := false
	for _, r := range rs.Rows {
		if r[0].S == "eve" {
			found = true
			if !r[1].IsNull() {
				t.Errorf("eve head = %v", r[1])
			}
		}
	}
	if !found {
		t.Error("left outer join dropped unmatched row")
	}
}

func TestJoinThreeWay(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE a (id BIGINT, x STRING)")
	mustExec(t, e, "CREATE TABLE b (id BIGINT, y STRING)")
	mustExec(t, e, "CREATE TABLE c (id BIGINT, z STRING)")
	mustExec(t, e, "INSERT INTO a VALUES (1, 'a1'), (2, 'a2')")
	mustExec(t, e, "INSERT INTO b VALUES (1, 'b1'), (2, 'b2')")
	mustExec(t, e, "INSERT INTO c VALUES (1, 'c1')")
	rs := mustExec(t, e, `SELECT a.x, b.y, c.z FROM a JOIN b ON a.id = b.id JOIN c ON b.id = c.id`)
	if len(rs.Rows) != 1 || rs.Rows[0].String() != "a1\tb1\tc1" {
		t.Errorf("3-way join = %v", rs.Rows)
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE l (k STRING, v BIGINT)")
	mustExec(t, e, "CREATE TABLE r (k STRING, w BIGINT)")
	mustExec(t, e, "INSERT INTO l VALUES (NULL, 1), ('a', 2)")
	mustExec(t, e, "INSERT INTO r VALUES (NULL, 10), ('a', 20)")
	rs := mustExec(t, e, "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k")
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 2 || rs.Rows[0][1].I != 20 {
		t.Errorf("null-key join = %v", rs.Rows)
	}
	// Left outer keeps the null-key left row unmatched.
	rs = mustExec(t, e, "SELECT l.v, r.w FROM l LEFT OUTER JOIN r ON l.k = r.k ORDER BY v")
	if len(rs.Rows) != 2 || !rs.Rows[0][1].IsNull() {
		t.Errorf("null-key left join = %v", rs.Rows)
	}
}

func TestDerivedTable(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	rs := mustExec(t, e, `SELECT g.dept, g.total FROM
		(SELECT dept, SUM(salary) total FROM emp GROUP BY dept) g
		WHERE g.total > 100 ORDER BY g.dept`)
	if len(rs.Rows) != 2 {
		t.Fatalf("derived = %v", rs.Rows)
	}
	if rs.Rows[0][0].S != "eng" || rs.Rows[0][1].F != 190 {
		t.Errorf("derived row = %v", rs.Rows[0])
	}
}

// The overwrite reads its own target whole: the KV baseline truncates
// only once the source has been read.
func TestInsertOverwriteReplacesData(t *testing.T) {
	for _, storage := range []string{"ORC", "HBASE"} {
		e := testEngine(t)
		seedEmployees(t, e, storage)
		mustExec(t, e, "INSERT OVERWRITE TABLE emp SELECT * FROM emp WHERE dept = 'eng'")
		rs := mustExec(t, e, "SELECT name FROM emp")
		if got := rowsAsStrings(rs); !slices.Equal(got, []string{"alice", "bob"}) {
			t.Errorf("%s: after overwrite rows = %v, want alice and bob", storage, got)
		}
	}
}

func TestUpdateViaOverwriteRewriteORC(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	rs := mustExec(t, e, "UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'")
	if rs.Plan != "OVERWRITE-REWRITE" {
		t.Errorf("plan = %s", rs.Plan)
	}
	got := mustExec(t, e, "SELECT name, salary FROM emp ORDER BY id")
	if got.Rows[0][1].F != 110 || got.Rows[1][1].F != 100 {
		t.Errorf("updated eng salaries = %v", got.Rows)
	}
	if got.Rows[2][1].F != 80 {
		t.Errorf("sales salary must be unchanged: %v", got.Rows[2])
	}
}

func TestDeleteViaOverwriteRewriteORC(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	mustExec(t, e, "DELETE FROM emp WHERE salary < 75")
	rs := mustExec(t, e, "SELECT COUNT(*) FROM emp")
	if rs.Rows[0][0].I != 3 {
		t.Errorf("after delete = %v", rs.Rows[0])
	}
}

func TestUpdateDeleteNativeKV(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "HBASE")
	rs := mustExec(t, e, "UPDATE emp SET salary = 0 WHERE dept = 'sales'")
	if rs.Plan != "EDIT-UDF" || rs.Affected != 2 {
		t.Errorf("kv update = %+v", rs)
	}
	got := mustExec(t, e, "SELECT SUM(salary) FROM emp")
	if got.Rows[0][0].F != 250 { // 100+90+0+0+60
		t.Errorf("after kv update sum = %v", got.Rows[0])
	}
	rs = mustExec(t, e, "DELETE FROM emp WHERE dept = 'hr'")
	if rs.Plan != "EDIT-UDF" || rs.Affected != 1 {
		t.Errorf("kv delete = %+v", rs)
	}
	got = mustExec(t, e, "SELECT COUNT(*) FROM emp")
	if got.Rows[0][0].I != 4 {
		t.Errorf("after kv delete count = %v", got.Rows[0])
	}
}

func TestCorrelatedSubqueryDecorrelation(t *testing.T) {
	// The paper's Listing 1 pattern: UPDATE ... SET col = (SELECT
	// SUM(...) FROM other WHERE other.k = this.k ...).
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE summary (dwdm STRING, rq STRING, qryhs DOUBLE)")
	mustExec(t, e, `INSERT INTO summary VALUES
		('org1', 'd1', 0.0), ('org2', 'd1', 0.0), ('org1', 'd2', 0.0)`)
	mustExec(t, e, "CREATE TABLE detail (dwdm STRING, tjrq STRING, tqyhs DOUBLE, sfqr BIGINT)")
	mustExec(t, e, `INSERT INTO detail VALUES
		('org1', 'd1', 5.0, 1), ('org1', 'd1', 7.0, 1), ('org1', 'd1', 100.0, 0),
		('org2', 'd1', 3.0, 1), ('org1', 'd2', 9.0, 1)`)
	mustExec(t, e, `UPDATE summary t SET t.qryhs =
		(SELECT SUM(k.tqyhs) FROM detail k
		 WHERE t.rq = k.tjrq AND k.dwdm = t.dwdm AND k.sfqr = 1)
		WHERE t.rq = 'd1'`)
	rs := mustExec(t, e, "SELECT dwdm, rq, qryhs FROM summary ORDER BY dwdm, rq")
	want := []string{"org1\td1\t12", "org1\td2\t0", "org2\td1\t3"}
	got := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		got[i] = r.String()
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decorrelated update:\ngot  %v\nwant %v", got, want)
	}
}

func TestUncorrelatedScalarSubquery(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	rs := mustExec(t, e, "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "alice" {
		t.Errorf("scalar subquery = %v", rs.Rows)
	}
}

func TestLoadData(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE li (id BIGINT, qty DOUBLE, flag STRING)")
	e.FS.MkdirAll("/gen")
	if err := e.FS.WriteFile("/gen/li.tbl", []byte("1|10.5|A|\n2|20.25|B|\n3|\\N|A|\n")); err != nil {
		t.Fatal(err)
	}
	rs := mustExec(t, e, "LOAD DATA INPATH '/gen/li.tbl' INTO TABLE li")
	if rs.Affected != 3 {
		t.Errorf("loaded = %d", rs.Affected)
	}
	got := mustExec(t, e, "SELECT COUNT(*), SUM(qty) FROM li")
	if got.Rows[0][0].I != 3 || got.Rows[0][1].F != 30.75 {
		t.Errorf("after load = %v", got.Rows[0])
	}
	// NULL parsed from \N.
	got = mustExec(t, e, "SELECT COUNT(*) FROM li WHERE qty IS NULL")
	if got.Rows[0][0].I != 1 {
		t.Errorf("null count = %v", got.Rows[0])
	}
}

// TestLoadChargesFileOnce: LOAD DATA's ledger reads its source file's
// bytes exactly once — in the write job's tasks, spread over them by
// rows — and charges no read of the parsed rows besides.
func TestLoadChargesFileOnce(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE li (id BIGINT, qty DOUBLE, flag STRING) STORED AS ORC")
	var src strings.Builder
	for i := range 1000 {
		fmt.Fprintf(&src, "%d|%d.25|%c|\n", i, i%50, 'A'+i%3)
	}
	e.FS.MkdirAll("/gen")
	if err := e.FS.WriteFile("/gen/li.tbl", []byte(src.String())); err != nil {
		t.Fatal(err)
	}
	rs := mustExec(t, e, "LOAD DATA INPATH '/gen/li.tbl' INTO TABLE li")
	if rs.Affected != 1000 {
		t.Fatalf("loaded = %d", rs.Affected)
	}
	if got, want := rs.Counts[sim.DFSReadBytes], int64(src.Len()); got != want {
		t.Errorf("LOAD of a %d-byte file charged DFSReadBytes %d", want, got)
	}
	if got := mustExec(t, e, "SELECT COUNT(*) FROM li").Rows[0][0].I; got != 1000 {
		t.Errorf("count after load = %d", got)
	}
}

func TestShowDescribeDropExplain(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	rs := mustExec(t, e, "SHOW TABLES")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "emp" {
		t.Errorf("show tables = %v", rs.Rows)
	}
	rs = mustExec(t, e, "DESCRIBE emp")
	if len(rs.Rows) != 5 { // 4 cols + storage line
		t.Errorf("describe = %v", rs.Rows)
	}
	rs = mustExec(t, e, "EXPLAIN UPDATE emp SET salary = 0 WHERE id = 1")
	if len(rs.Rows) < 2 || !strings.Contains(rs.Rows[1][0].S, "INSERT OVERWRITE") {
		t.Errorf("explain = %v", rs.Rows)
	}
	mustExec(t, e, "DROP TABLE emp")
	if _, err := e.Execute("SELECT * FROM emp"); err == nil {
		t.Error("query after drop should fail")
	}
	mustExec(t, e, "DROP TABLE IF EXISTS emp")
}

func TestCreateErrors(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	if _, err := e.Execute("CREATE TABLE emp (x BIGINT)"); err == nil {
		t.Error("duplicate create should fail")
	}
	mustExec(t, e, "CREATE TABLE IF NOT EXISTS emp (x BIGINT)")
	if _, err := e.Execute("INSERT INTO emp VALUES (1)"); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := e.Execute("UPDATE emp SET nosuch = 1"); err == nil {
		t.Error("unknown SET column should fail")
	}
}

func TestExpressionFunctions(t *testing.T) {
	e := testEngine(t)
	rs := mustExec(t, e, `SELECT
		IF(1 < 2, 'y', 'n'),
		COALESCE(NULL, 'x'),
		CONCAT('a', 'b', 'c'),
		LENGTH('hello'),
		UPPER('lo'), LOWER('HI'),
		SUBSTR('abcdef', 2, 3),
		ABS(-4), ROUND(2.6), FLOOR(2.6), CEIL(2.2),
		YEAR('2014-04-01'), MONTH('2014-04-01'), DAY('2014-04-01'),
		CAST('12' AS BIGINT), CAST(3 AS STRING),
		5 % 3, 7 / 2`)
	want := "y\tx\tabc\t5\tLO\thi\tbcd\t4\t3\t2\t3\t2014\t4\t1\t12\t3\t2\t3.5"
	if rs.Rows[0].String() != want {
		t.Errorf("functions:\ngot  %s\nwant %s", rs.Rows[0].String(), want)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE n (v BIGINT)")
	mustExec(t, e, "INSERT INTO n VALUES (1), (NULL), (3)")
	// NULL comparisons are unknown → filtered out.
	rs := mustExec(t, e, "SELECT COUNT(*) FROM n WHERE v > 0")
	if rs.Rows[0][0].I != 2 {
		t.Errorf("null filter = %v", rs.Rows[0])
	}
	rs = mustExec(t, e, "SELECT COUNT(*) FROM n WHERE v IS NULL")
	if rs.Rows[0][0].I != 1 {
		t.Errorf("is null = %v", rs.Rows[0])
	}
	// NOT(NULL) is NULL: still filtered.
	rs = mustExec(t, e, "SELECT COUNT(*) FROM n WHERE NOT (v > 0)")
	if rs.Rows[0][0].I != 0 {
		t.Errorf("not null = %v", rs.Rows[0])
	}
	// DELETE must keep NULL-predicate rows.
	mustExec(t, e, "DELETE FROM n WHERE v > 0")
	rs = mustExec(t, e, "SELECT COUNT(*) FROM n")
	if rs.Rows[0][0].I != 1 {
		t.Errorf("after delete = %v", rs.Rows[0])
	}
}

func TestCaseExpr(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	rs := mustExec(t, e, `SELECT name, CASE WHEN salary >= 90 THEN 'high' WHEN salary >= 70 THEN 'mid' ELSE 'low' END
		FROM emp ORDER BY id`)
	want := []string{"high", "high", "mid", "mid", "low"}
	for i, w := range want {
		if rs.Rows[i][1].S != w {
			t.Errorf("case row %d = %v, want %s", i, rs.Rows[i], w)
		}
	}
}

func TestOrderByExpressionAndLimit(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	rs := mustExec(t, e, "SELECT name FROM emp ORDER BY salary DESC LIMIT 2")
	if len(rs.Rows) != 2 || rs.Rows[0][0].S != "alice" || rs.Rows[1][0].S != "bob" {
		t.Errorf("order+limit = %v", rs.Rows)
	}
	// ORDER BY an expression not in the select list.
	rs = mustExec(t, e, "SELECT name FROM emp ORDER BY salary * -1 LIMIT 1")
	if rs.Rows[0][0].S != "alice" {
		t.Errorf("order by expr = %v", rs.Rows)
	}
}

func TestPredicatePushdownPrunesORCStripes(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE big (id BIGINT, v DOUBLE)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO big VALUES ")
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d.5)", i, i)
	}
	mustExec(t, e, sb.String())
	before := e.FS.Metrics().BytesRead
	rs := mustExec(t, e, "SELECT COUNT(*) FROM big WHERE id >= 990")
	if rs.Rows[0][0].I != 10 {
		t.Fatalf("pushdown count = %v", rs.Rows[0])
	}
	afterPushdown := e.FS.Metrics().BytesRead - before
	before = e.FS.Metrics().BytesRead
	rs = mustExec(t, e, "SELECT COUNT(*) FROM big")
	if rs.Rows[0][0].I != 1000 {
		t.Fatalf("full count = %v", rs.Rows[0])
	}
	fullScan := e.FS.Metrics().BytesRead - before
	if fullScan == 0 {
		t.Skip("table fits one stripe; cannot observe pruning")
	}
	_ = afterPushdown // informational: pruning requires multiple stripes
}

func TestSimTimeGrowsWithData(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE s (id BIGINT, payload STRING)")
	small := mustExec(t, e, "SELECT COUNT(*) FROM s")
	var sb strings.Builder
	sb.WriteString("INSERT INTO s VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'payload-%d-%s')", i, i, strings.Repeat("x", 50))
	}
	mustExec(t, e, sb.String())
	big := mustExec(t, e, "SELECT COUNT(*) FROM s")
	if big.SimSeconds <= small.SimSeconds {
		t.Errorf("sim time did not grow with data: %f vs %f", big.SimSeconds, small.SimSeconds)
	}
}

func TestResultColumnNames(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	rs := mustExec(t, e, "SELECT id, name AS who, salary * 2 FROM emp LIMIT 1")
	want := []string{"id", "who", "_c2"}
	if !reflect.DeepEqual(rs.Columns, want) {
		t.Errorf("columns = %v, want %v", rs.Columns, want)
	}
}

func TestParseDelimitedErrors(t *testing.T) {
	schema := datum.Schema{{Name: "a", Kind: datum.KindInt}}
	if _, err := parseDelimited("1|2", schema); err == nil {
		t.Error("field count mismatch should fail")
	}
	if _, err := parseDelimited("xx", schema); err == nil {
		t.Error("bad int should fail")
	}
	rows, err := parseDelimited("7\n\n8\n", schema)
	if err != nil || len(rows) != 2 {
		t.Errorf("blank lines: %v %v", rows, err)
	}
}
