package bench

import (
	"fmt"
	"math"
	"math/rand"

	"dualtable/internal/datum"
)

// serveStream is the bulk-result serving workload: every statement
// streams the whole table to the client, so the result path (RowBatch
// encode and decode, frames, flow-control credits, driver.Rows) does
// the work and the per-statement fixed cost is paid once per stream.
func serveStream() *workloadDef {
	stream := &class{name: "stream", sql: `SELECT id, grp, v, w, tag, day FROM big WHERE id >= ?`, query: true, cols: "iiffss"}
	d := &workloadDef{
		name: "serve_stream",
		why: "2 wire clients, read-only, each statement streams all 32768 rows of a clean 4-file table: the result path, not fixed cost. " +
			"main=whole stream p50/p95, second=time to first row p50/p95",
		wire: true, clients: 2,
		classes: []*class{stream},
		main:    slot{"main", stream, false, 0.95},
		second:  slot{"second", stream, true, 0.95},
		primary: "big", projection: []string{"id", "grp", "v", "w", "tag", "day"},
	}
	d.build = func(e *env) error {
		// 32768 rows, not the issue's 65536: at the contract's run
		// length that still gives over 200 streams, which the p95s need.
		const files = 4
		perFile := e.scale.pick(8192, 512)
		st := &streamState{rows: int64(files * perFile)}
		if _, err := e.db.Exec(`CREATE TABLE big (id BIGINT, grp BIGINT, v DOUBLE, w DOUBLE, tag STRING, day STRING) STORED AS DUALTABLE`); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(e.seed))
		for f := 0; f < files; f++ {
			rows := make([]datum.Row, perFile)
			for i := range rows {
				id := int64(f*perFile + i)
				grp := id % 64
				v := float64(rng.Intn(400000)) / 4
				w := float64(rng.Intn(1000))
				tag := fmt.Sprintf("tag-%02d", rng.Intn(97))
				day := fmt.Sprintf("2014-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))
				st.sum += streamRowHash(id, grp, v, w, tag, day)
				rows[i] = datum.Row{datum.Int(id), datum.Int(grp), datum.Float(v), datum.Float(w), datum.String_(tag), datum.String_(day)}
			}
			if _, err := e.db.Engine.BulkLoad("big", rows); err != nil {
				return err
			}
		}
		e.state = st
		for c := 0; c < d.clients; c++ {
			e.gens = append(e.gens, &streamGen{st: st, stream: stream})
		}
		e.warmupOps = e.scale.pick(4, 1)
		e.traceOps = e.scale.pick(24, 4)
		return nil
	}
	d.verify = func(e *env) error {
		desc, err := e.desc("big")
		if err != nil {
			return err
		}
		n, err := e.db.Handler.AttachedEntryCount(desc)
		if err != nil {
			return err
		}
		if n != 0 {
			return fmt.Errorf("read-only table grew %d attached entries", n)
		}
		return nil
	}
	return d
}

type streamState struct {
	rows int64
	sum  uint64 // order-independent checksum of the generated rows
}

type streamGen struct {
	st     *streamState
	stream *class
}

func (g *streamGen) next() op {
	o := g.probe(g.stream)
	o.cycleEnd = true
	return o
}

func (g *streamGen) probe(c *class) op {
	st := g.st
	var sum uint64
	return op{class: c, args: []any{int64(0)},
		visit: func(b *rowBuf) { sum += streamRowHash(b.I[0], b.I[1], b.F[0], b.F[1], b.S[0], b.S[1]) },
		check: func(r stmtResult) error {
			if r.rows != st.rows || sum != st.sum {
				return fmt.Errorf("stream delivered %d rows checksum %x, want %d rows checksum %x", r.rows, sum, st.rows, st.sum)
			}
			return nil
		}}
}

// streamRowHash mixes one row into a 64-bit value. Rows arrive in any
// order (four splits stream in parallel), so the stream checksum is
// the wrapping sum of these.
func streamRowHash(id, grp int64, v, w float64, tag, day string) uint64 {
	h := uint64(id)*0x9e3779b97f4a7c15 ^ uint64(grp)*0xc2b2ae3d27d4eb4f
	h ^= math.Float64bits(v) * 0x165667b19e3779f9
	h ^= math.Float64bits(w) * 0x27d4eb2f165667c5
	for i := 0; i < len(tag); i++ {
		h = (h ^ uint64(tag[i])) * 0x100000001b3
	}
	for i := 0; i < len(day); i++ {
		h = (h ^ uint64(day[i])) * 0x100000001b3
	}
	return h
}
