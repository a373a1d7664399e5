package hive

import (
	"fmt"
	"sync/atomic"

	"dualtable/internal/datum"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/orcfile"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// The write path. An INSERT … SELECT into a DUALTABLE is one job: the
// SELECT's own, whose last stage writes into the target's OutputFactory
// (insertSelect). Rows already in memory — VALUES, LOAD, BulkLoad, and
// the collected results of every other INSERT … SELECT — go through
// writeRows' map-only job. A write task writes one file.

// writeTaskRows bounds the rows one write task takes: writeRows cuts its
// rows into tasks of this many, and a map-only write combines
// consecutive input splits into tasks of at most this many input rows.
const writeTaskRows = 100000

// insertSelect writes an INSERT's SELECT into the target's output and
// returns how many rows it wrote.
//
// Into a DUALTABLE the SELECT's own job writes, from the stage that
// produces the rows — the map tasks of a map-only plan, the reduce tasks
// of a GROUP BY — as Hive compiles INSERT … SELECT and as §IV prices the
// OVERWRITE plan: one job. A failed job leaves nothing behind, because
// the target publishes only at Commit and its Abort deletes what was
// written. A plan that must see every row before it has one (DISTINCT,
// ORDER BY, LIMIT, a global aggregate) collects its result first.
//
// Every other storage is one of the paper's baselines — Hive on HDFS,
// on HBase, Hive ACID — and writes as it always has: the whole result is
// collected and coerced before writeRows' job writes it. Its clock is
// the one the cost parameters were calibrated against, and the in-place
// writes of INSERT INTO and of HBASE's truncating overwrite could not be
// taken back by an Abort anyway.
func (e *Engine) insertSelect(ec *ExecContext, s *sqlparser.InsertStmt, desc *metastore.TableDesc, of mapred.OutputFactory, ledger *sim.Ledger) (int64, error) {
	plan, err := e.planSelect(ec, s.Select, ledger)
	if err != nil {
		return 0, err
	}
	defer plan.Release()
	if len(plan.names) != len(desc.Schema) {
		return 0, fmt.Errorf("hive: INSERT into %s: query returns %d columns, table has %d",
			s.Table, len(plan.names), len(desc.Schema))
	}
	if desc.Storage == metastore.StorageDual {
		out := &insertOutput{target: of, table: s.Table, schema: desc.Schema}
		job, err := plan.writeJob(out)
		if err != nil {
			return 0, err
		}
		if job != nil {
			res, err := e.MR.RunContext(ec.Context(), job)
			if err != nil {
				return 0, err
			}
			ledger.Add(res.Counts, res.SimSeconds)
			return out.rows.Load(), nil
		}
	}
	rows, err := plan.collect(e, ec, ledger)
	if err != nil {
		return 0, err
	}
	for _, r := range rows {
		if err := desc.Schema.CoerceRow(r); err != nil {
			return 0, fmt.Errorf("hive: INSERT into %s: %w", s.Table, err)
		}
	}
	return int64(len(rows)), e.writeRows(ec, rows, 0, of, ledger)
}

// writeTable writes into desc through its storage handler, replacing
// the table's contents (overwrite) or adding to them, and returns what
// write reports it wrote. The target's factory and committer — for
// DUALTABLE, its writer — are taken before write runs: a writer that
// publishes while the source is read waits for this one instead of
// being replaced away by it. Every error aborts.
func (e *Engine) writeTable(desc *metastore.TableDesc, overwrite bool, write func(of mapred.OutputFactory) (int64, error)) (int64, error) {
	h, err := e.Handler(desc.Storage)
	if err != nil {
		return 0, err
	}
	var of mapred.OutputFactory
	var committer Committer
	if overwrite {
		of, committer, err = h.Overwrite(desc)
	} else {
		of, committer, err = h.Append(desc)
	}
	if err != nil {
		return 0, err
	}
	n, err := write(of)
	if err != nil {
		committer.Abort()
		return 0, err
	}
	if err := committer.Commit(); err != nil {
		return 0, err
	}
	return n, nil
}

// writeRows streams rows through an output factory as one map-only
// job: the write of VALUES, LOAD, BulkLoad and the baseline storages'
// collected INSERT … SELECT. srcBytes is the size of the file the rows
// were parsed from (LOAD's): the tasks charge its DFS read, each its
// share by rows, so the file is charged once. With srcBytes 0 the rows
// have no source file, and each task charges a DFS read of its rows'
// encoded size that no DFS serves (ROADMAP item 17).
func (e *Engine) writeRows(ec *ExecContext, rows []datum.Row, srcBytes int64, factory mapred.OutputFactory, ledger *sim.Ledger) error {
	var splits []mapred.InputSplit
	for off := 0; off < len(rows); off += writeTaskRows {
		end := min(off+writeTaskRows, len(rows))
		var simSize int64
		if srcBytes > 0 {
			n := int64(len(rows))
			simSize = srcBytes*int64(end)/n - srcBytes*int64(off)/n
		} else {
			for _, r := range rows[off:end] {
				simSize += int64(datum.RowEncodedSize(r))
			}
		}
		splits = append(splits, &mapred.SliceSplit{Rows: rows[off:end], SimSize: simSize})
	}
	if len(splits) == 0 {
		return nil
	}
	job := &mapred.Job{
		Name:   "write",
		Splits: splits,
		NewMapper: func() mapred.Mapper {
			return mapred.MapFunc(func(row datum.Row, _ mapred.RecordMeta, emit mapred.Emitter) error {
				return emit(nil, row)
			})
		},
		Output: factory,
	}
	res, err := e.MR.RunContext(ec.Context(), job)
	if err != nil {
		return err
	}
	ledger.Add(res.Counts, res.SimSeconds)
	return nil
}

// writeJob returns the plan's job writing its result into out from the
// stage that produces it, or nil when the result must be collected
// first: a SELECT without FROM, DISTINCT, ORDER BY, LIMIT, or a global
// aggregate, which has a row even for no input. A map-only write reads
// consecutive splits in tasks of up to writeTaskRows input rows, so it
// writes as many files as the rows call for, not one per split.
func (p *selectPlan) writeJob(out *insertOutput) (*mapred.Job, error) {
	if p.job == nil || p.distinct || len(p.desc) > 0 || p.limit >= 0 || p.emptyRow != nil {
		return nil, nil
	}
	job := *p.job
	job.Output = out
	if p.post != nil {
		out.post = p.post
		return &job, nil
	}
	var err error
	job.Splits, err = combineSplits(job.Splits)
	return &job, err
}

// combineSplits groups consecutive splits into tasks of at most
// writeTaskRows rows (a larger split is a task of its own). An ORC split
// counts its file's rows, read from the footer, which the split keeps
// for its task; a split that cannot tell its rows unread (text, a
// key-value table) counts none.
func combineSplits(splits []mapred.InputSplit) ([]mapred.InputSplit, error) {
	var out []mapred.InputSplit
	var group mapred.CombinedSplit
	var rows int64
	end := func() {
		if len(group) == 1 {
			out = append(out, group[0])
		} else if len(group) > 1 {
			out = append(out, group)
		}
		group, rows = nil, 0
	}
	for _, s := range splits {
		var n int64
		switch s := s.(type) {
		case *ORCSplit:
			if s.Footer == nil {
				rd, err := OpenFooter(s.FS, s.Path)
				if err != nil {
					return nil, err
				}
				s.Footer = rd
			}
			n = s.Footer.NumRows()
		case *mapred.SliceSplit:
			n = int64(len(s.Rows))
		}
		if len(group) > 0 && rows+n > writeTaskRows {
			end()
		}
		group, rows = append(group, s), rows+n
	}
	end()
	return out, nil
}

// insertOutput is the output of an INSERT's SELECT job: every task's
// rows are coerced to the target's schema and counted on their way into
// the target's collector, after a GROUP BY's post stage when there is
// one.
type insertOutput struct {
	target mapred.OutputFactory
	table  string
	schema datum.Schema
	post   *simpleScanPlan // HAVING and the select list over a GROUP BY's reduced rows
	rows   atomic.Int64
}

// Reserve passes the job's reservation on to the target.
func (o *insertOutput) Reserve(first, n int, m *sim.Meter) error {
	if r, ok := o.target.(mapred.Reserver); ok {
		return r.Reserve(first, n, m)
	}
	return nil
}

func (o *insertOutput) NewCollector(taskID int, m *sim.Meter) (mapred.Collector, error) {
	target, err := o.target.NewCollector(taskID, m)
	if err != nil {
		return nil, err
	}
	bc, ok := target.(mapred.BatchCollector)
	if !ok {
		return nil, fmt.Errorf("hive: INSERT into %s: its writer takes no column batches", o.table)
	}
	c := &insertCollector{o: o, target: bc}
	if o.post == nil {
		return c, nil
	}
	pm := o.post.newMapper().(*simpleScanMapper)
	pm.emitBatch = c.CollectBatch
	return &postCollector{next: c, mapper: pm, meter: m}, nil
}

// insertCollector coerces one task's rows to the target's schema and
// hands them to the target's writer, which consumes them inside the
// call, so its buffers are reused.
type insertCollector struct {
	o      *insertOutput
	target mapred.BatchCollector

	row     datum.Row
	view    datum.Batch          // a batch with its coerced columns swapped in
	coerced []datum.ColumnVector // per column, the coerced copy
}

func (c *insertCollector) Collect(row datum.Row) error {
	c.row = append(c.row[:0], row...)
	if err := c.o.schema.CoerceRow(c.row); err != nil {
		return fmt.Errorf("hive: INSERT into %s: %w", c.o.table, err)
	}
	c.o.rows.Add(1)
	return c.target.Collect(c.row)
}

func (c *insertCollector) CollectBatch(b *datum.Batch) (bool, error) {
	out, err := c.coerce(b)
	if err != nil {
		return false, fmt.Errorf("hive: INSERT into %s: %w", c.o.table, err)
	}
	c.o.rows.Add(int64(b.Len))
	_, err = c.target.CollectBatch(out)
	return false, err
}

// coerce returns b with every column of the target's kind: b itself when
// each already is (or is all NULL), else a view of b whose other columns
// are coerced copies.
func (c *insertCollector) coerce(b *datum.Batch) (*datum.Batch, error) {
	out := b
	for j := range b.Cols {
		v, kind := &b.Cols[j], c.o.schema[j].Kind
		if (v.Kind == kind || v.Kind == datum.KindNull) && len(v.Datums) == 0 {
			continue
		}
		if out == b {
			c.view.Shape(len(b.Cols), b.Len)
			copy(c.view.Cols, b.Cols)
			out = &c.view
			if len(c.coerced) < len(b.Cols) {
				c.coerced = make([]datum.ColumnVector, len(b.Cols))
			}
		}
		dst := &c.coerced[j]
		dst.Reset(kind, b.Len)
		for i := 0; i < b.Len; i++ {
			d, err := datum.Coerce(v.Datum(i), kind)
			if err != nil {
				return nil, fmt.Errorf("datum: column %s: %w", c.o.schema[j].Name, err)
			}
			dst.Put(i, d)
		}
		out.Cols[j] = *dst
	}
	return out, nil
}

func (c *insertCollector) Close() error { return c.target.Close() }

// postCollector runs a GROUP BY's last stage — HAVING, the select list
// — over its reduce task's rows, a reader's batch at a time, charging
// the task what the collected plan charges the statement, and hands the
// result to next.
type postCollector struct {
	next   *insertCollector
	mapper *simpleScanMapper
	meter  *sim.Meter
	rows   []datum.Row // reduced rows, the reducer's to hand over
	in     datum.Batch
}

func (c *postCollector) Collect(row datum.Row) error {
	c.rows = append(c.rows, row)
	if len(c.rows) < orcfile.DefaultBatchRows {
		return nil
	}
	return c.flush()
}

func (c *postCollector) flush() error {
	if len(c.rows) == 0 {
		return nil
	}
	n := len(c.rows)
	c.meter.CPURows(int64(n))
	c.in.SetRows(c.rows, len(c.rows[0]))
	c.rows = c.rows[:0]
	return c.mapper.MapBatch(&mapred.RecordBatch{Len: n, Cols: c.in.Cols}, nil)
}

func (c *postCollector) Close() error {
	err := c.flush()
	if cerr := c.mapper.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return c.next.Close()
}
