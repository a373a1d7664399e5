package bench

import (
	"context"
	"database/sql"
	"fmt"
	"time"

	"dualtable"
	_ "dualtable/driver" // registers the "dualtable" database/sql driver
	"dualtable/internal/server"
)

// class is one statement shape of a workload.
type class struct {
	name string
	// sql is the prepared text with '?' placeholders. Classes whose
	// text changes per statement (a multi-row INSERT) leave it empty
	// and put the text on the op; sample is then a representative text
	// for the parser probe.
	sql    string
	sample string
	// query marks a SELECT whose rows are scanned one by one.
	query bool
	// cols gives the scan destination of each result column:
	// i = int64, f = float64, s = string.
	cols string
	// plan is the DML plan the class must hold ("EDIT", "OVERWRITE"),
	// or "" to leave the cost model alone.
	plan string
	// kind attributes DFS writes in the traced pass.
	kind writeKind
}

func (c *class) text() string {
	if c.sql != "" {
		return c.sql
	}
	return c.sample
}

type writeKind int

const (
	kindRead writeKind = iota
	kindEdit
	kindOverwrite
	kindCompact
	kindInsert
)

// rowBuf holds the typed scan destinations of one result row, the way
// a database/sql caller declares them.
type rowBuf struct {
	I    []int64
	F    []float64
	S    []string
	dest []any
}

func newRowBuf(cols string) *rowBuf {
	b := &rowBuf{}
	var ni, nf, ns int
	for _, k := range cols {
		switch k {
		case 'i':
			ni++
		case 'f':
			nf++
		case 's':
			ns++
		}
	}
	b.I, b.F, b.S = make([]int64, ni), make([]float64, nf), make([]string, ns)
	ni, nf, ns = 0, 0, 0
	for _, k := range cols {
		switch k {
		case 'i':
			b.dest = append(b.dest, &b.I[ni])
			ni++
		case 'f':
			b.dest = append(b.dest, &b.F[nf])
			nf++
		case 's':
			b.dest = append(b.dest, &b.S[ns])
			ns++
		}
	}
	return b
}

// op is one step of a workload's seeded sequence.
type op struct {
	class *class
	sql   string // statement text when the class has no prepared text
	args  []any
	// visit sees every result row of a query.
	visit func(*rowBuf)
	// check judges the finished statement and, on success, applies its
	// effect to the workload's model. A non-nil error fails the op.
	check func(stmtResult) error
	// aux, when set, replaces the statement with an action that is
	// timed on its own clock and not counted as a statement (the
	// cycle-end flush of dml_churn).
	aux func() error
	// cycleEnd marks a point where the table state is back on its
	// cycle; a time-bound run stops only here.
	cycleEnd bool
}

type stmtResult struct {
	rows     int64
	affected int64
	sim      float64       // simulated seconds; 0 where the surface hides it
	firstRow time.Duration // statement start to first row (queries with rows)
}

// conn runs a workload's statements through one of the two surfaces a
// user has: a database/sql connection to dtserver, or an in-process
// Session.
type conn interface {
	run(o *op) (stmtResult, error)
	close() error
}

// bufFor returns a connection's scan buffer for a class.
func bufFor(bufs map[*class]*rowBuf, cl *class) *rowBuf {
	b := bufs[cl]
	if b == nil {
		b = newRowBuf(cl.cols)
		bufs[cl] = b
	}
	return b
}

// rowIter is what *sql.Rows and *dualtable.Rows have in common.
type rowIter interface {
	Next() bool
	Scan(dest ...any) error
	Err() error
}

// scanAll scans every row into b the way a caller would, noting when
// the first one arrived.
func scanAll(rows rowIter, t0 time.Time, b *rowBuf, visit func(*rowBuf)) (stmtResult, error) {
	var res stmtResult
	for rows.Next() {
		if res.rows == 0 {
			res.firstRow = time.Since(t0)
		}
		if err := rows.Scan(b.dest...); err != nil {
			return res, err
		}
		res.rows++
		if visit != nil {
			visit(b)
		}
	}
	return res, rows.Err()
}

// ---- in-process surface ----

type sessConn struct {
	sess  *dualtable.Session
	stmts map[*class]*dualtable.Stmt
	bufs  map[*class]*rowBuf
	plan  string
}

func newSessConn(db *dualtable.DB) *sessConn {
	return &sessConn{sess: db.Session(), stmts: map[*class]*dualtable.Stmt{}, bufs: map[*class]*rowBuf{}}
}

func (c *sessConn) run(o *op) (stmtResult, error) {
	cl := o.class
	if cl.plan != "" && cl.plan != c.plan {
		c.sess.SetForcePlan(cl.plan)
		c.plan = cl.plan
	}
	var st *dualtable.Stmt
	if cl.sql != "" {
		st = c.stmts[cl]
		if st == nil {
			var err error
			if st, err = c.sess.Prepare(cl.sql); err != nil {
				return stmtResult{}, fmt.Errorf("prepare %s: %w", cl.name, err)
			}
			c.stmts[cl] = st
		}
	}
	var res stmtResult
	if !cl.query {
		var rs *dualtable.ResultSet
		var err error
		if st != nil {
			rs, err = st.Exec(o.args...)
		} else {
			rs, err = c.sess.Exec(o.sql)
		}
		if err != nil {
			return res, err
		}
		res.affected, res.sim = rs.Affected, rs.SimSeconds
		return res, nil
	}
	t0 := time.Now()
	var rows *dualtable.Rows
	var err error
	if st != nil {
		rows, err = st.Query(o.args...)
	} else {
		rows, err = c.sess.Query(o.sql)
	}
	if err != nil {
		return res, err
	}
	res, err = scanAll(rows, t0, bufFor(c.bufs, cl), o.visit)
	res.sim = rows.SimSeconds() // complete once the rows are drained
	rows.Close()
	return res, err
}

func (c *sessConn) close() error { return c.sess.Close() }

// ---- wire surface ----

// serverConfig is the loopback dtserver every serving workload runs
// against: limits wide enough that two closed-loop clients are never
// queued or shed, so the numbers are the statement path and not the
// admission gate (which needs more clients than this box has cores).
func serverConfig() server.Config {
	return server.Config{Addr: "127.0.0.1:0", MaxConcurrent: 16, QueueDepth: 256, QueueWait: time.Minute}
}

type wireConn struct {
	db    *sql.DB
	c     *sql.Conn
	stmts map[*class]*sql.Stmt
	bufs  map[*class]*rowBuf
	plan  string
}

// dialWire opens one dedicated connection: a *sql.Conn, because driver
// session state (SET, prepared statements) does not survive pool
// borrows.
func dialWire(addr string) (*wireConn, error) {
	db, err := sql.Open("dualtable", "dt://"+addr+"?retries=0")
	if err != nil {
		return nil, err
	}
	db.SetMaxOpenConns(1)
	c, err := db.Conn(context.Background())
	if err != nil {
		db.Close()
		return nil, err
	}
	return &wireConn{db: db, c: c, stmts: map[*class]*sql.Stmt{}, bufs: map[*class]*rowBuf{}}, nil
}

func (c *wireConn) run(o *op) (stmtResult, error) {
	ctx := context.Background()
	cl := o.class
	if cl.plan != "" && cl.plan != c.plan {
		if _, err := c.c.ExecContext(ctx, "SET dualtable.force.plan = '"+cl.plan+"'"); err != nil {
			return stmtResult{}, fmt.Errorf("force plan: %w", err)
		}
		c.plan = cl.plan
	}
	var st *sql.Stmt
	if cl.sql != "" {
		st = c.stmts[cl]
		if st == nil {
			var err error
			if st, err = c.c.PrepareContext(ctx, cl.sql); err != nil {
				return stmtResult{}, fmt.Errorf("prepare %s: %w", cl.name, err)
			}
			c.stmts[cl] = st
		}
	}
	var res stmtResult
	if !cl.query {
		var r sql.Result
		var err error
		if st != nil {
			r, err = st.ExecContext(ctx, o.args...)
		} else {
			r, err = c.c.ExecContext(ctx, o.sql)
		}
		if err != nil {
			return res, err
		}
		res.affected, _ = r.RowsAffected() // the driver's RowsAffected never fails
		return res, nil
	}
	t0 := time.Now()
	var rows *sql.Rows
	var err error
	if st != nil {
		rows, err = st.QueryContext(ctx, o.args...)
	} else {
		rows, err = c.c.QueryContext(ctx, o.sql)
	}
	if err != nil {
		return res, err
	}
	res, err = scanAll(rows, t0, bufFor(c.bufs, cl), o.visit)
	rows.Close()
	return res, err
}

func (c *wireConn) close() error {
	for _, st := range c.stmts {
		st.Close()
	}
	c.c.Close()
	return c.db.Close()
}
