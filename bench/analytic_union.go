package bench

import (
	"fmt"
	"strconv"

	"dualtable"
	"dualtable/internal/workload"
)

// analyticUnion is the paper's read side: TPC-H style queries over a
// lineitem table whose attached table holds a static delta (5 % of the
// rows updated, 2 % deleted, both by forced EDIT), so every scan is a
// real UNION READ and per-row engine work dominates.
func analyticUnion() *workloadDef {
	q1 := &class{name: "q1", sql: workload.QueryA, query: true, cols: "ssfffffffi"}
	q12 := &class{name: "q12_join", sql: workload.QueryB, query: true, cols: "sff"}
	count := &class{name: "count", sql: workload.QueryC, query: true, cols: "i"}
	filter := &class{name: "filter_scan", query: true, cols: "if",
		sql: `SELECT l_orderkey, l_quantity FROM lineitem WHERE l_shipdate >= '1998-06-01' AND l_quantity < 10`}
	topn := &class{name: "topn", query: true, cols: "if",
		sql: `SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 20`}
	groupby := &class{name: "groupby", query: true, cols: "iif",
		sql: `SELECT l_partkey % 1000, COUNT(*), SUM(l_quantity) FROM lineitem GROUP BY l_partkey % 1000`}
	d := &workloadDef{
		name: "analytic_union",
		why: "1 in-process session, read-only rotation of 6 TPC-H style queries over a 30000-row lineitem with a static EDIT delta: per-row engine work. " +
			"main=q1 p50/p75, second=q12_join p50/p75",
		clients: 1,
		classes: []*class{q1, q12, count, filter, topn, groupby},
		// A rotation takes about a quarter second, so a run holds fewer
		// than 100 samples per class: p75 is the highest percentile
		// with ten samples beyond it.
		main:    slot{"main", q1, false, 0.75},
		second:  slot{"second", q12, false, 0.75},
		primary: "lineitem",
		projection: []string{"l_quantity", "l_extendedprice", "l_discount", "l_tax",
			"l_returnflag", "l_linestatus", "l_shipdate"},
	}
	load := func(e *env, db *dualtable.DB) error {
		cfg := workload.DefaultTPCHConfig()
		// Half the issue's 60000/15000 rows: the run length leaves room
		// for 64 rotations only at this size.
		cfg.LineitemRows, cfg.OrdersRows = e.scale.pick(30000, 2000), e.scale.pick(7500, 500)
		cfg.Seed = e.seed
		if err := workload.SetupTPCH(db.Engine, cfg); err != nil {
			return err
		}
		s := db.Session()
		defer s.Close()
		s.SetForcePlan("EDIT")
		for _, dml := range []string{workload.DMLA, workload.DMLB} {
			rs, err := s.Exec(dml)
			if err != nil {
				return err
			}
			if rs.Plan != "EDIT" || rs.Affected == 0 {
				return fmt.Errorf("delta DML ran as %q on %d rows", rs.Plan, rs.Affected)
			}
		}
		return nil
	}
	d.build = func(e *env) error {
		if err := load(e, e.db); err != nil {
			return err
		}
		// The twin receives the same rows and the same DML and is then
		// compacted: its answers come from rewritten master files with
		// no UNION READ, and every answer of the dirty table must equal
		// them (the paper's UNION READ ≡ rewrite).
		twin, err := dualtable.Open(dualtable.DefaultConfig())
		if err != nil {
			return err
		}
		if err := load(e, twin); err != nil {
			return fmt.Errorf("twin: %w", err)
		}
		if _, err := twin.Exec(`COMPACT TABLE lineitem`); err != nil {
			return fmt.Errorf("twin: %w", err)
		}
		st := &analyticState{want: map[*class]uint64{}}
		tc := newSessConn(twin)
		defer tc.close()
		for _, c := range d.classes {
			dg := &digester{}
			if _, err := tc.run(&op{class: c, visit: dg.visit(c)}); err != nil {
				return fmt.Errorf("twin %s: %w", c.name, err)
			}
			st.want[c] = dg.sum
		}
		desc, err := e.desc("lineitem")
		if err != nil {
			return err
		}
		if st.delta, err = e.db.Handler.AttachedEntryCount(desc); err != nil {
			return err
		}
		if st.delta == 0 {
			return fmt.Errorf("lineitem has no attached delta")
		}
		e.state = st
		e.gens = []generator{&analyticGen{st: st, classes: d.classes}}
		e.warmupOps = e.scale.pick(2, 1) * len(d.classes)
		e.traceOps = e.scale.pick(8, 1) * len(d.classes)
		return nil
	}
	d.digests = func(e *env) map[string]string {
		out := map[string]string{}
		for c, v := range e.state.(*analyticState).want {
			out[c.name] = strconv.FormatUint(v, 16)
		}
		return out
	}
	d.verify = func(e *env) error {
		st := e.state.(*analyticState)
		desc, err := e.desc("lineitem")
		if err != nil {
			return err
		}
		n, err := e.db.Handler.AttachedEntryCount(desc)
		if err != nil {
			return err
		}
		if n != st.delta {
			return fmt.Errorf("attached delta moved from %d to %d entries in a read-only run", st.delta, n)
		}
		return nil
	}
	return d
}

type analyticState struct {
	want  map[*class]uint64 // the compacted twin's digest per class
	delta int64             // attached entries of the dirty table
}

type analyticGen struct {
	st      *analyticState
	classes []*class
	i       int
}

func (g *analyticGen) next() op {
	c := g.classes[g.i%len(g.classes)]
	g.i++
	o := g.probe(c)
	o.cycleEnd = g.i%len(g.classes) == 0
	return o
}

func (g *analyticGen) probe(c *class) op {
	dg := &digester{}
	want := g.st.want[c]
	return op{class: c, visit: dg.visit(c), check: func(stmtResult) error {
		if dg.sum != want {
			return fmt.Errorf("digest %x differs from the compacted twin's %x", dg.sum, want)
		}
		return nil
	}}
}

// digester folds result rows into an order-independent digest. Floats
// enter with nine significant digits: a sum over UNION READ splits and
// the same sum over rewritten files add in a different order and may
// differ in the last bits.
type digester struct {
	sum uint64
	buf []byte
}

func (d *digester) visit(c *class) func(*rowBuf) {
	return func(b *rowBuf) {
		d.buf = d.buf[:0]
		var ni, nf, ns int
		for _, k := range c.cols {
			switch k {
			case 'i':
				d.buf = strconv.AppendInt(d.buf, b.I[ni], 10)
				ni++
			case 'f':
				d.buf = strconv.AppendFloat(d.buf, b.F[nf], 'e', 8, 64)
				nf++
			case 's':
				d.buf = append(d.buf, b.S[ns]...)
				ns++
			}
			d.buf = append(d.buf, 0)
		}
		h := uint64(14695981039346656037)
		for _, x := range d.buf {
			h = (h ^ uint64(x)) * 1099511628211
		}
		d.sum += h
	}
}
