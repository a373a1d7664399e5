package hive

import (
	"fmt"
	"slices"

	"dualtable/internal/datum"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// DMLSink is the storage half of the DML scan: one per map task, it
// turns the records the scan selected into the handler's writes (cells,
// tombstones, delta records). Its I/O charges the task meter tm so it
// parallelizes across map slots in the simulated makespan.
//
// Ownership: row and vals are the mapper's scratch, valid only during
// the Apply call — a sink that keeps either must copy it.
type DMLSink interface {
	// Apply handles one record that passed WHERE. vals holds the new
	// values of the statement's SET columns, coerced to the column
	// kinds and aligned with the setCols the sink was built with; it is
	// empty for DELETE. The result reports whether the record counts as
	// affected.
	Apply(tm *sim.Meter, recordID uint64, row datum.Row, vals []datum.Datum) (bool, error)
	// Flush runs once after the task's last record.
	Flush(tm *sim.Meter) error
}

// RunDMLScan is the paper's write operator (§V-A's UPDATE and DELETE
// UDTFs are this one scan with different sinks): a map-only job over
// splits that filters records through WHERE, evaluates the SET values
// of the survivors and hands each to its task's sink. stmt is an
// *sqlparser.UpdateStmt or *sqlparser.DeleteStmt on desc; newSink
// receives the schema indexes of the SET targets (nil for DELETE). The
// job's counts and seconds are added to l and the affected count returned.
func (e *Engine) RunDMLScan(ec *ExecContext, desc *metastore.TableDesc, stmt sqlparser.Statement, jobName string,
	splits []mapred.InputSplit, l *sim.Ledger, newSink func(setCols []int) DMLSink) (int64, error) {
	var table, qual string
	var where sqlparser.Expr
	var sets []sqlparser.SetClause
	switch s := stmt.(type) {
	case *sqlparser.UpdateStmt:
		table, qual, where, sets = s.Table, s.Alias, s.Where, s.Sets
	case *sqlparser.DeleteStmt:
		table, qual, where = s.Table, s.Alias, s.Where
	default:
		return 0, fmt.Errorf("hive: DML scan of %T", stmt)
	}
	// Columns resolve by bare name or under the alias (the table name
	// when there is none).
	if qual == "" {
		qual = table
	}
	sc := newScope(qual, desc.Schema)
	filter, err := e.newScanFilter(ec, where, sc)
	if err != nil {
		return 0, err
	}
	var setCols []int
	var values []sqlparser.Expr
	for _, s := range sets {
		setCols = append(setCols, desc.Schema.ColumnIndex(s.Column))
		values = append(values, s.Value)
	}
	setVals, err := e.compileVecs(ec, values, sc)
	if err != nil {
		return 0, err
	}
	job := &mapred.Job{
		Name:   jobName,
		Splits: splits,
		NewMapper: func() mapred.Mapper {
			return &dmlScanMapper{
				filter: filter, schema: desc.Schema, setCols: setCols, setVals: slices.Clone(setVals),
				vals: make([]datum.Datum, len(setVals)), sink: newSink(setCols),
			}
		},
	}
	res, err := e.MR.RunContext(ec.Context(), job)
	if err != nil {
		return 0, err
	}
	l.Add(res.Counts, res.SimSeconds)
	return res.Counters.OutputRecords, nil
}

// dmlScanMapper is the DML scan's only mapper. The SET values are
// programs like every scan expression, run once per batch over the
// records WHERE selected; each selected record is then materialized
// into one reused row for its sink.
type dmlScanMapper struct {
	filter  scanFilter
	schema  datum.Schema
	setCols []int     // shared, immutable
	setVals []vecExpr // programs shared, registers the mapper's own
	vals    []datum.Datum
	row     datum.Row
	sink    DMLSink
	meter   *sim.Meter
}

// SetMeter receives the task meter the sink's writes charge.
func (m *dmlScanMapper) SetMeter(tm *sim.Meter) { m.meter = tm }

func (m *dmlScanMapper) MapBatch(b *mapred.RecordBatch, emit mapred.Emitter) error {
	sel, err := m.filter.begin(b)
	if err != nil || len(sel) == 0 {
		return err
	}
	if err := beginBatchAll(m.setVals, b, sel); err != nil {
		return err
	}
	for _, i := range sel {
		m.row = b.RowInto(m.row, int(i))
		for k := range m.setVals {
			if m.vals[k], err = datum.Coerce(m.setVals[k].res.Datum(int(i)), m.schema[m.setCols[k]].Kind); err != nil {
				return err
			}
		}
		affected, err := m.sink.Apply(m.meter, b.Meta(int(i)).RecordID, m.row, m.vals)
		if err != nil {
			return err
		}
		if affected {
			if err := emit(nil, datum.Row{datum.Int(1)}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *dmlScanMapper) Flush(mapred.Emitter) error { return m.sink.Flush(m.meter) }

func (m *dmlScanMapper) Close() error { return releaseRegisters(&m.filter, m.setVals) }
