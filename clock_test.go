package dualtable_test

import (
	"math"
	"slices"
	"testing"

	"dualtable"
	"dualtable/internal/workload"
)

// The clock tests pin what PR 21 (joins ride the one scan) may and may
// not move on the paper's clock: a statement without a join keeps its
// SimSeconds to the last bit, a join statement keeps its rows and runs
// no slower than the same query with the pushdown written out by hand.

// openClockTPCH loads the analytic_union data set of bench/ — a TPC-H
// lineitem/orders pair whose lineitem carries a forced-EDIT delta (5 %
// updated, 2 % deleted). Rewrite output is a function of the input
// alone on any number of workers.
func openClockTPCH(tb testing.TB, lineitem, orders int, storage string) *dualtable.DB {
	tb.Helper()
	db, err := dualtable.Open(dualtable.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	cfg := workload.DefaultTPCHConfig()
	cfg.LineitemRows, cfg.OrdersRows, cfg.Seed, cfg.Storage = lineitem, orders, 1, storage
	if err := workload.SetupTPCH(db.Engine, cfg); err != nil {
		tb.Fatal(err)
	}
	if storage != "DUALTABLE" {
		return db
	}
	s := db.Session()
	defer s.Close()
	s.SetForcePlan("EDIT")
	for _, dml := range []string{workload.DMLA, workload.DMLB} {
		if rs, err := s.Exec(dml); err != nil || rs.Plan != "EDIT" || rs.Affected == 0 {
			tb.Fatalf("delta DML: plan %q, %d rows, err %v", rs.Plan, rs.Affected, err)
		}
	}
	return db
}

// clockNonJoin are statements no join touches, with the SimSeconds each
// returned at the parent commit (84e5e76) on openClockTPCH(6000, 1500),
// COMPACT's one ulp later since a rewrite reserves its file IDs once for
// its job, ahead of its tasks.
var clockNonJoin = []struct {
	name, sql string
	force     string
	want      uint64 // math.Float64bits of the parent's SimSeconds
}{
	{name: "q1", sql: workload.QueryA, want: 0x402a0f3a8e71476b},
	{name: "count", sql: workload.QueryC, want: 0x402a0ba85bd43c2e},
	{name: "filter_scan", sql: `SELECT l_orderkey, l_quantity FROM lineitem WHERE l_shipdate >= '1998-06-01' AND l_quantity < 10`, want: 0x40290cdc1e7967cb},
	{name: "topn", sql: `SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 20`, want: 0x40290da14b3ec2b4},
	{name: "groupby", sql: `SELECT l_partkey % 1000, COUNT(*), SUM(l_quantity) FROM lineitem GROUP BY l_partkey % 1000`, want: 0x402a0cea38ee5e17},
	{name: "edit_update", sql: `UPDATE lineitem SET l_comment = 'clock' WHERE l_partkey % 25 = 3`, force: "EDIT", want: 0x40292fdee858438e},
	{name: "compact", sql: `COMPACT TABLE lineitem`, want: 0x40292b01fe726147},
}

func TestClockNonJoinStatementsUnchanged(t *testing.T) {
	db := openClockTPCH(t, 6000, 1500, "DUALTABLE")
	for _, c := range clockNonJoin {
		s := db.Session()
		if c.force != "" {
			s.SetForcePlan(c.force)
		}
		rs, err := s.Exec(c.sql)
		s.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := math.Float64bits(rs.SimSeconds); got != c.want {
			t.Errorf("%s: SimSeconds %v (bits %#x), parent %v (bits %#x)", c.name,
				rs.SimSeconds, got, math.Float64frombits(c.want), c.want)
		}
	}
}

// queryBPushed is workload.QueryB with the pushdown written out by
// hand: each input is a FROM-subquery that filters and projects before
// the join, which costs two extra map-only jobs.
const queryBPushed = `SELECT l.l_shipmode,
		SUM(IF(o.o_orderpriority = '1-URGENT' OR o.o_orderpriority = '2-HIGH', 1, 0)) AS high_line_count,
		SUM(IF(o.o_orderpriority != '1-URGENT' AND o.o_orderpriority != '2-HIGH', 1, 0)) AS low_line_count
	FROM (SELECT o_orderkey, o_orderpriority FROM orders) o
	JOIN (SELECT l_orderkey, l_shipmode FROM lineitem
	      WHERE l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate
	        AND l_shipdate < l_commitdate AND l_receiptdate >= '1994-01-01') l
	ON o.o_orderkey = l.l_orderkey
	GROUP BY l.l_shipmode ORDER BY l.l_shipmode`

// gridQuery1Pushed is workload.GridQuery1 pushed by hand (three extra
// jobs).
const gridQuery1Pushed = `SELECT j.dwdm, COUNT(*) AS cnt
	FROM (SELECT dwdm FROM yh_gbjld WHERE sfyzx = 0 AND gddy > 215.0) j
	JOIN (SELECT dwdm, zdjh FROM zc_zdzc) z ON j.dwdm = z.dwdm
	JOIN (SELECT zdjh FROM zd_gbcld) c ON z.zdjh = c.zdjh
	GROUP BY j.dwdm`

// Rows of the two join statements as the parent commit answered them.
var (
	queryBParent     = []string{"MAIL\t189\t315", "SHIP\t219\t302"}
	gridQuery1Parent = []string{"ORG006\t6", "ORG012\t2", "ORG015\t9"}
)

func TestClockJoinsNoSlowerThanHandPushed(t *testing.T) {
	tpch := openClockTPCH(t, 30000, 7500, "DUALTABLE")
	grid, err := dualtable.Open(dualtable.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gcfg := workload.DefaultGridConfig()
	gcfg.Storage = "ORC"
	if err := workload.SetupGrid(grid.Engine, gcfg, workload.GridTablesII()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		db          *dualtable.DB
		sql, pushed string
		parent      []string
		ordered     bool
	}{
		{"QueryB", tpch, workload.QueryB, queryBPushed, queryBParent, true},
		{"GridQuery1", grid, workload.GridQuery1, gridQuery1Pushed, gridQuery1Parent, false},
	} {
		rs := c.db.MustExec(c.sql)
		hand := c.db.MustExec(c.pushed)
		got := renderRows(rs)
		if !c.ordered {
			slices.Sort(got)
		}
		t.Logf("%s: %d rows, %v sim-s (hand-pushed %v): %q", c.name, len(got), rs.SimSeconds, hand.SimSeconds, got)
		if !slices.Equal(got, c.parent) {
			t.Errorf("%s: rows %q differ from the parent's %q", c.name, got, c.parent)
		}
		if !sameRows(renderRows(hand), got, c.ordered) {
			t.Errorf("%s: rows differ from the hand-pushed form's", c.name)
		}
		if rs.SimSeconds > hand.SimSeconds {
			t.Errorf("%s: %v sim-s, the hand-pushed form takes %v", c.name, rs.SimSeconds, hand.SimSeconds)
		}
	}
}

// BenchmarkJoinQ12 is bench/'s q12_join class as a package benchmark:
// workload.QueryB over the 30 000/7 500-row TPC-H pair with the
// forced-EDIT delta. At the parent of PR 21: 168 ms/op, 204.7 MB/op,
// 200 833 allocs/op.
func BenchmarkJoinQ12(b *testing.B) {
	db := openClockTPCH(b, 30000, 7500, "DUALTABLE")
	s := db.Session()
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs, err := s.Exec(workload.QueryB); err != nil || len(rs.Rows) != 2 {
			b.Fatalf("%d rows, err %v", len(rs.Rows), err)
		}
	}
}
