package bench

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"dualtable/internal/datum"
)

// servePoint is the small-statement serving mix: point UPDATEs and
// 64-row group scans over a table of eight small master files, with a
// periodic COMPACT so the attached delta cycles instead of growing.
func servePoint() *workloadDef {
	scan := &class{name: "group_scan", sql: `SELECT id, v FROM bench WHERE grp = ? AND v >= ?`, query: true, cols: "if"}
	upd := &class{name: "point_update", sql: `UPDATE bench SET v = v + 1 WHERE id = ?`, plan: "EDIT", kind: kindEdit}
	compact := &class{name: "compact", sql: `COMPACT TABLE bench`, kind: kindCompact}
	d := &workloadDef{
		name: "serve_point",
		why: "2 wire clients, 1 UPDATE per 3 64-row scans on 8 small files, COMPACT every 128 updates: per-statement fixed cost. " +
			"main=group_scan p50/p95, second=point_update p50/p95",
		wire: true, clients: 2,
		classes: []*class{scan, upd, compact},
		main:    slot{"main", scan, false, 0.95},
		second:  slot{"second", upd, false, 0.95},
		primary: "bench", projection: []string{"id", "grp", "v"},
	}
	d.build = func(e *env) error {
		const groups = 64
		files := 8
		perFile := e.scale.pick(512, 128)
		compactEvery := e.scale.pick(128, 16)
		st := &pointState{rows: files * perFile, groups: groups}
		if _, err := e.db.Exec(`CREATE TABLE bench (id BIGINT, grp BIGINT, v DOUBLE) STORED AS DUALTABLE`); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(e.seed))
		for f := 0; f < files; f++ {
			rows := make([]datum.Row, perFile)
			for i := range rows {
				id := int64(f*perFile + i)
				v := float64(rng.Intn(1000))
				st.initSum += v
				rows[i] = datum.Row{datum.Int(id), datum.Int(id % groups), datum.Float(v)}
			}
			if _, err := e.db.Engine.BulkLoad("bench", rows); err != nil {
				return err
			}
		}
		e.state = st
		for c := 0; c < d.clients; c++ {
			g := &pointGen{st: st, scan: scan, upd: upd, compact: compact,
				rng: rand.New(rand.NewSource(e.seed*1000 + int64(c) + 1))}
			if c == 0 {
				// The first COMPACT falls inside the warm-up, so the
				// measured phase starts on the delta's cycle.
				g.compactEvery = compactEvery
				g.updates = compactEvery - 16
			}
			e.gens = append(e.gens, g)
		}
		e.warmupOps = e.scale.pick(128, 80)
		e.traceOps = e.scale.pick(1792, 96)
		return nil
	}
	d.userBytes = func(e *env) int64 { return 8 * e.state.(*pointState).acked.Load() }
	d.verify = func(e *env) error {
		st := e.state.(*pointState)
		rs, err := e.db.Exec(`SELECT COUNT(*), SUM(v) FROM bench`)
		if err != nil {
			return err
		}
		n, _ := rs.Rows[0][0].AsInt()
		sum, _ := rs.Rows[0][1].AsFloat()
		if want := st.initSum + float64(st.acked.Load()); n != int64(st.rows) || sum != want {
			return fmt.Errorf("bench has %d rows, SUM(v)=%v; want %d rows, SUM(v)=%v (initial %v + %d acked updates)",
				n, sum, st.rows, want, st.initSum, st.acked.Load())
		}
		return nil
	}
	return d
}

// pointState is shared by the clients: the table's shape and how many
// updates the server acknowledged.
type pointState struct {
	rows, groups int
	initSum      float64
	acked        atomic.Int64
}

type pointGen struct {
	st                 *pointState
	scan, upd, compact *class
	rng                *rand.Rand
	i                  int
	updates            int
	compactEvery       int // 0: this client never compacts
	compactDue         bool
}

func (g *pointGen) next() op {
	if g.compactDue {
		g.compactDue = false
		return op{class: g.compact, cycleEnd: true}
	}
	g.i++
	if g.i%4 != 0 {
		o := g.probe(g.scan)
		o.cycleEnd = true
		return o
	}
	g.updates++
	if g.compactEvery > 0 && g.updates%g.compactEvery == 0 {
		g.compactDue = true
	}
	o := g.probe(g.upd)
	o.cycleEnd = !g.compactDue
	return o
}

func (g *pointGen) probe(c *class) op {
	st := g.st
	switch c {
	case g.upd:
		id := int64(g.rng.Intn(st.rows))
		return op{class: c, args: []any{id}, check: func(r stmtResult) error {
			if r.affected != 1 {
				return fmt.Errorf("id %d: %d rows affected, want 1", id, r.affected)
			}
			st.acked.Add(1)
			return nil
		}}
	case g.scan:
		grp := int64(g.rng.Intn(st.groups))
		want := int64(st.rows / st.groups)
		var stray int64 = -1
		return op{class: c, args: []any{grp, 0.0},
			visit: func(b *rowBuf) {
				if b.I[0]%int64(st.groups) != grp {
					stray = b.I[0]
				}
			},
			check: func(r stmtResult) error {
				if r.rows != want || stray >= 0 {
					return fmt.Errorf("grp %d: %d rows (want %d), stray id %d", grp, r.rows, want, stray)
				}
				return nil
			}}
	}
	return op{class: c}
}
