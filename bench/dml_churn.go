package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"dualtable/internal/datum"
	"dualtable/internal/kvstore"
	"dualtable/internal/sim"
)

// dmlChurn is the paper's write path in steady state. One cycle is a
// forced-OVERWRITE update of 40 % of the table, an insert of one new
// row per group, eight forced-EDIT updates of one group each followed
// by a read, a forced-EDIT delete of the oldest row of every group (so
// the live row count is constant), a COMPACT that folds the delta, and
// a flush of the attached table's memtable. A Go model of the table
// follows the DML; every read must match it.
func dmlChurn() *workloadDef {
	overwrite := &class{name: "overwrite_update", sample: `UPDATE t SET tag = 'c1' WHERE grp < 80`, plan: "OVERWRITE", kind: kindOverwrite}
	insert := &class{name: "insert", sample: `INSERT INTO t VALUES (1, 1, 1.0, 'new')`, kind: kindInsert}
	edit := &class{name: "edit_update", sql: `UPDATE t SET v = v + 1 WHERE grp = ?`, plan: "EDIT", kind: kindEdit}
	read := &class{name: "read_after_write", sql: `SELECT COUNT(*), SUM(v) FROM t`, query: true, cols: "if"}
	del := &class{name: "edit_delete", sql: `DELETE FROM t WHERE id < ?`, plan: "EDIT", kind: kindEdit}
	compact := &class{name: "compact", sql: `COMPACT TABLE t`, kind: kindCompact}
	d := &workloadDef{
		name: "dml_churn",
		why: "1 in-process session cycling OVERWRITE update, INSERT, 8x(EDIT update, read), EDIT delete, COMPACT on 40000 rows: the write path. " +
			"main=edit_update p50/p95, second=overwrite_update p50/p75",
		clients: 1,
		classes: []*class{edit, overwrite, insert, read, del, compact},
		main:    slot{"main", edit, false, 0.95},
		// One OVERWRITE per cycle: under 100 samples a run, so p75.
		second:  slot{"second", overwrite, false, 0.75},
		primary: "t", projection: []string{"grp", "v"},
	}
	d.build = func(e *env) error {
		const files = 4
		groups := e.scale.pick(200, 20)
		perGroup := e.scale.pick(200, 100)
		st := &churnState{groups: groups, live: groups * perGroup, next: int64(groups * perGroup), bumpAtInsert: map[int64]float64{}}
		st.grpSum = make([]float64, groups)
		st.grpBump = make([]float64, groups)
		if _, err := e.db.Exec(`CREATE TABLE t (id BIGINT, grp BIGINT, v DOUBLE, tag STRING) STORED AS DUALTABLE`); err != nil {
			return err
		}
		perFile := st.live / files
		for f := 0; f < files; f++ {
			rows := make([]datum.Row, perFile)
			for i := range rows {
				id := int64(f*perFile + i)
				rows[i] = datum.Row{datum.Int(id), datum.Int(id % int64(groups)), datum.Float(float64(id)), datum.String_("tag0")}
				st.grpSum[id%int64(groups)] += float64(id)
			}
			if _, err := e.db.Engine.BulkLoad("t", rows); err != nil {
				return err
			}
		}
		att, err := attachedTable(e, "t")
		if err != nil {
			return err
		}
		st.att = att
		e.state = st
		e.gens = []generator{&churnGen{st: st, rng: rand.New(rand.NewSource(e.seed)), editsPerCycle: e.scale.pick(8, 2),
			overwrite: overwrite, insert: insert, edit: edit, read: read, del: del, compact: compact}}
		cycleOps := 5 + 2*e.scale.pick(8, 2)
		e.warmupOps = e.scale.pick(4, 1) * cycleOps
		e.traceOps = e.scale.pick(16, 2) * cycleOps
		return nil
	}
	d.userBytes = func(e *env) int64 { return e.state.(*churnState).user.total() }
	d.verify = func(e *env) error {
		st := e.state.(*churnState)
		rs, err := e.db.Exec(`SELECT COUNT(*), SUM(v), MIN(id), MAX(id) FROM t`)
		if err != nil {
			return err
		}
		n, _ := rs.Rows[0][0].AsInt()
		sum, _ := rs.Rows[0][1].AsFloat()
		lo, _ := rs.Rows[0][2].AsInt()
		hi, _ := rs.Rows[0][3].AsInt()
		if n != int64(st.live) || sum != st.sum() || lo != st.oldest || hi != st.next-1 {
			return fmt.Errorf("t has %d rows, SUM(v)=%v, ids %d..%d; the model has %d rows, SUM(v)=%v, ids %d..%d",
				n, sum, lo, hi, st.live, st.sum(), st.oldest, st.next-1)
		}
		return nil
	}
	return d
}

// attachedTable finds the attached key-value table of a DUALTABLE by
// its name prefix (the suffix is the table incarnation).
func attachedTable(e *env, table string) (*kvstore.Table, error) {
	prefix := "dt_" + strings.ToLower(table) + "_attached"
	for _, n := range e.db.KV.TableNames() {
		if strings.HasPrefix(n, prefix) {
			return e.db.KV.Table(n)
		}
	}
	return nil, fmt.Errorf("no attached table for %s", table)
}

// churnState models table t. Ids oldest..next-1 are live, one row per
// group in every run of `groups` consecutive ids; grp = id % groups.
// The model keeps per-group sums of v instead of rows: every statement
// of the cycle touches whole groups or one row of each.
type churnState struct {
	groups, live int
	oldest, next int64
	grpSum       []float64 // sum of v over the group's live rows
	grpBump      []float64 // how many EDIT increments the group has received so far
	// bumpAtInsert is a row's group's grpBump when the row was inserted
	// (absent = 0, the loaded rows), so a row's v is its id plus the
	// group's increments since: what the delete takes out of grpSum.
	bumpAtInsert map[int64]float64
	att          *kvstore.Table
	user         writeUserBytes
	tagSeq       int
}

func (st *churnState) sum() float64 {
	var s float64
	for _, g := range st.grpSum {
		s += g
	}
	return s
}

type churnGen struct {
	st            *churnState
	rng           *rand.Rand
	editsPerCycle int
	step          int // position inside the cycle

	overwrite, insert, edit, read, del, compact *class
}

// cycle layout: 0 overwrite, 1 insert, then editsPerCycle pairs of
// (edit, read), then delete, compact, flush.
func (g *churnGen) next() op {
	pairs := 2 * g.editsPerCycle
	step := g.step
	g.step++
	switch {
	case step == 0:
		return g.probe(g.overwrite)
	case step == 1:
		return g.probe(g.insert)
	case step < 2+pairs:
		if (step-2)%2 == 0 {
			return g.probe(g.edit)
		}
		return g.probe(g.read)
	case step == 2+pairs:
		return g.probe(g.del)
	case step == 3+pairs:
		return g.probe(g.compact)
	}
	// The flush is off the statement clock. It empties the attached
	// table's memtable at a fixed point of every cycle, so the LSM's
	// flush and minor-compaction points — and with them the byte
	// counts — fall on the same statements in every run.
	g.step = 0
	att := g.st.att
	return op{cycleEnd: true, aux: func() error { return att.Flush(sim.NewMeter(nil)) }}
}

func (g *churnGen) probe(c *class) op {
	st := g.st
	switch c {
	case g.overwrite:
		st.tagSeq++
		tag := fmt.Sprintf("c%d", st.tagSeq)
		cut := st.groups * 2 / 5
		return op{class: c, sql: fmt.Sprintf(`UPDATE t SET tag = '%s' WHERE grp < %d`, tag, cut),
			check: func(r stmtResult) error {
				// The OVERWRITE plan rewrites the table and reports
				// every row as affected.
				if r.affected != int64(st.live) {
					return fmt.Errorf("overwrite affected %d rows, want %d", r.affected, st.live)
				}
				st.user.assignedBytes += int64(len(tag)) * int64(cut) * int64(st.live/st.groups)
				return nil
			}}
	case g.insert:
		var sb strings.Builder
		sb.WriteString(`INSERT INTO t VALUES `)
		first := st.next
		for i := 0; i < st.groups; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			id := first + int64(i)
			fmt.Fprintf(&sb, "(%d, %d, %d.0, 'new')", id, id%int64(st.groups), id)
		}
		return op{class: c, sql: sb.String(), check: func(r stmtResult) error {
			if r.affected != int64(st.groups) {
				return fmt.Errorf("insert affected %d rows, want %d", r.affected, st.groups)
			}
			for i := 0; i < st.groups; i++ {
				id := first + int64(i)
				grp := id % int64(st.groups)
				st.grpSum[grp] += float64(id)
				st.bumpAtInsert[id] = st.grpBump[grp]
			}
			st.next += int64(st.groups)
			st.live += st.groups
			st.user.insertedRowBytes += int64(st.groups) * (8 + 8 + 8 + int64(len("new")))
			return nil
		}}
	case g.edit:
		grp := g.rng.Intn(st.groups)
		rowsInGroup := int64(st.live / st.groups)
		return op{class: c, args: []any{int64(grp)}, check: func(r stmtResult) error {
			if r.affected != rowsInGroup {
				return fmt.Errorf("edit of grp %d affected %d rows, want %d", grp, r.affected, rowsInGroup)
			}
			st.grpSum[grp] += float64(rowsInGroup)
			st.grpBump[grp]++
			st.user.assignedBytes += 8 * rowsInGroup
			return nil
		}}
	case g.read:
		var n int64
		var sum float64
		return op{class: c,
			visit: func(b *rowBuf) { n, sum = b.I[0], b.F[0] },
			check: func(stmtResult) error {
				if want := st.sum(); n != int64(st.live) || sum != want {
					return fmt.Errorf("read COUNT=%d SUM(v)=%v, the model has COUNT=%d SUM(v)=%v", n, sum, st.live, want)
				}
				return nil
			}}
	case g.del:
		cut := st.oldest + int64(st.groups)
		return op{class: c, args: []any{cut}, check: func(r stmtResult) error {
			if r.affected != int64(st.groups) {
				return fmt.Errorf("delete affected %d rows, want %d", r.affected, st.groups)
			}
			for id := st.oldest; id < cut; id++ {
				grp := id % int64(st.groups)
				st.grpSum[grp] -= float64(id) + st.grpBump[grp] - st.bumpAtInsert[id]
				delete(st.bumpAtInsert, id)
			}
			st.oldest = cut
			st.live -= st.groups
			st.user.deletedRows += int64(st.groups)
			return nil
		}}
	}
	return op{class: c}
}
