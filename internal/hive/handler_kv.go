package hive

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"

	"dualtable/internal/datum"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// kvHandler stores tables entirely in the key-value store — the
// Hive(HBase) baseline of the paper's Figures 11 and 12. Each row
// gets a monotonically assigned 8-byte row key; each column is one
// cell (family "d", qualifier = column index). A scan streams the
// whole table through the MapReduce engine as one split; point DML
// uses native puts and tombstones (the paper implements this
// baseline's EDIT-like plans with user defined functions, §VI-B).
type kvHandler struct {
	e *Engine
}

const kvFamily = "d"

func kvTableName(desc *metastore.TableDesc) string {
	return "hive_" + desc.Name
}

func (h *kvHandler) Create(desc *metastore.TableDesc) error {
	_, err := h.e.KV.CreateTable(kvTableName(desc))
	return err
}

func (h *kvHandler) Drop(desc *metastore.TableDesc) error {
	if h.e.KV.HasTable(kvTableName(desc)) {
		return h.e.KV.DropTable(kvTableName(desc))
	}
	return nil
}

func (h *kvHandler) table(desc *metastore.TableDesc) (*kvstore.Table, error) {
	return h.e.KV.Table(kvTableName(desc))
}

func (h *kvHandler) Splits(desc *metastore.TableDesc, opts ScanOptions) ([]mapred.InputSplit, func(), error) {
	tbl, err := h.table(desc)
	if err != nil {
		return nil, nil, err
	}
	split := &kvSplit{tbl: tbl, schema: desc.Schema, size: tbl.Size()}
	return []mapred.InputSplit{split}, noRelease, nil
}

func (h *kvHandler) RowCount(desc *metastore.TableDesc) (int64, error) {
	tbl, err := h.table(desc)
	if err != nil {
		return 0, err
	}
	// Entry count over column count approximates the row count.
	n := tbl.EntryCount() / int64(len(desc.Schema))
	return n, nil
}

func (h *kvHandler) DataSize(desc *metastore.TableDesc) (int64, error) {
	tbl, err := h.table(desc)
	if err != nil {
		return 0, err
	}
	return tbl.Size(), nil
}

func (h *kvHandler) Append(desc *metastore.TableDesc) (mapred.OutputFactory, Committer, error) {
	f := &kvOutputFactory{h: h, name: kvTableName(desc)}
	if _, err := f.table(); err != nil {
		return nil, nil, err
	}
	return f, NopCommitter{}, nil
}

// Overwrite truncates then appends, with no staging for the KV baseline
// (Hive-on-HBase overwrite behaves the same way). The truncate waits for
// the first collector — or the commit, when nothing is written — so the
// source of INSERT OVERWRITE t SELECT … FROM t reads t whole.
func (h *kvHandler) Overwrite(desc *metastore.TableDesc) (mapred.OutputFactory, Committer, error) {
	if _, err := h.table(desc); err != nil {
		return nil, nil, err
	}
	f := &kvOutputFactory{h: h, name: kvTableName(desc), truncate: true}
	return f, kvTruncateCommitter{f}, nil
}

// rowKey builds the 8-byte big-endian key for a row id.
func rowKey(id uint64) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], id)
	return k[:]
}

// kvOutputFactory writes rows as cells into the named table, resolved
// (and, for an overwrite, truncated) once, by the first caller of table.
type kvOutputFactory struct {
	h        *kvHandler
	name     string
	truncate bool

	once sync.Once
	tbl  *kvstore.Table
	err  error
}

func (f *kvOutputFactory) table() (*kvstore.Table, error) {
	f.once.Do(func() {
		if f.truncate {
			if f.err = f.h.e.KV.TruncateTable(f.name); f.err != nil {
				return
			}
		}
		f.tbl, f.err = f.h.e.KV.Table(f.name)
	})
	return f.tbl, f.err
}

func (f *kvOutputFactory) NewCollector(taskID int, m *sim.Meter) (mapred.Collector, error) {
	tbl, err := f.table()
	if err != nil {
		return nil, err
	}
	return &kvCollector{h: f.h, tbl: tbl, meter: m}, nil
}

// kvTruncateCommitter commits an overwrite that wrote no rows: the
// table is still truncated.
type kvTruncateCommitter struct{ f *kvOutputFactory }

func (c kvTruncateCommitter) Commit() error {
	_, err := c.f.table()
	return err
}

func (kvTruncateCommitter) Abort() error { return nil }

type kvCollector struct {
	h     *kvHandler
	tbl   *kvstore.Table
	meter *sim.Meter
	batch []*kvstore.Cell
}

func (c *kvCollector) Collect(row datum.Row) error {
	id := c.h.e.KV.NextTs()
	key := rowKey(id)
	for i, d := range row {
		if d.IsNull() {
			continue
		}
		c.batch = append(c.batch, &kvstore.Cell{
			Row:       key,
			Family:    kvFamily,
			Qualifier: []byte(strconv.Itoa(i)),
			Type:      kvstore.TypePut,
			Value:     datum.AppendDatum(nil, d),
		})
	}
	if len(c.batch) >= 512 {
		return c.flush()
	}
	return nil
}

func (c *kvCollector) flush() error {
	if len(c.batch) == 0 {
		return nil
	}
	err := c.tbl.Put(c.batch, c.meter)
	c.batch = c.batch[:0]
	return err
}

func (c *kvCollector) Close() error { return c.flush() }

// kvSplit scans the whole table.
type kvSplit struct {
	tbl    *kvstore.Table
	schema datum.Schema
	size   int64
}

func (s *kvSplit) Length() int64 { return s.size }

func (s *kvSplit) Open(m *sim.Meter) (mapred.RecordReader, error) {
	rs := s.tbl.NewRowScanner(kvstore.Scan{Meter: m})
	return &kvRecordReader{rs: rs, schema: s.schema}, nil
}

type kvRecordReader struct {
	rs     *kvstore.RowScanner
	schema datum.Schema
}

func (r *kvRecordReader) Next() (datum.Row, mapred.RecordMeta, error) {
	res, ok := r.rs.Next()
	if !ok {
		return nil, mapred.RecordMeta{}, mapred.EOF
	}
	row := make(datum.Row, len(r.schema))
	for i := range row {
		row[i] = datum.Null
	}
	for _, cell := range res.Cells {
		idx, err := strconv.Atoi(string(cell.Qualifier))
		if err != nil || idx < 0 || idx >= len(row) {
			continue
		}
		d, _, err := datum.DecodeDatum(cell.Value)
		if err != nil {
			return nil, mapred.RecordMeta{}, fmt.Errorf("hive: kv cell decode: %w", err)
		}
		row[idx] = d
	}
	meta := mapred.RecordMeta{RecordID: binary.BigEndian.Uint64(res.Row)}
	return row, meta, nil
}

func (r *kvRecordReader) Close() error { return r.rs.Close() }

// ---- Native DML (the UDF-based EDIT plans of the paper's HBase
// baseline) ----

// ExecUpdate scans matching rows and puts the changed cells in place.
func (h *kvHandler) ExecUpdate(ec *ExecContext, e *Engine, desc *metastore.TableDesc, stmt *sqlparser.UpdateStmt, l *sim.Ledger) (int64, string, error) {
	return h.runDML(ec, e, desc, stmt, "kv-update", l)
}

// ExecDelete scans matching rows and writes row tombstones.
func (h *kvHandler) ExecDelete(ec *ExecContext, e *Engine, desc *metastore.TableDesc, stmt *sqlparser.DeleteStmt, l *sim.Ledger) (int64, string, error) {
	return h.runDML(ec, e, desc, stmt, "kv-delete", l)
}

func (h *kvHandler) runDML(ec *ExecContext, e *Engine, desc *metastore.TableDesc, stmt sqlparser.Statement, jobName string, l *sim.Ledger) (int64, string, error) {
	tbl, err := h.table(desc)
	if err != nil {
		return 0, "", err
	}
	splits, release, err := h.Splits(desc, ScanOptions{})
	if err != nil {
		return 0, "", err
	}
	defer release()
	n, err := e.RunDMLScan(ec, desc, stmt, jobName, splits, l, func(setCols []int) DMLSink {
		return &kvSink{tbl: tbl, setCols: setCols}
	})
	return n, "EDIT-UDF", err
}

// kvSink is the KV handler's DML sink: every matched record is
// affected, and the task's cells go to the table in one put at Flush.
type kvSink struct {
	tbl     *kvstore.Table
	setCols []int // nil = DELETE
	batch   []*kvstore.Cell
}

func (s *kvSink) Apply(_ *sim.Meter, recordID uint64, _ datum.Row, vals []datum.Datum) (bool, error) {
	key := rowKey(recordID)
	if s.setCols == nil {
		s.batch = append(s.batch, &kvstore.Cell{Row: key, Type: kvstore.TypeDeleteRow})
		return true, nil
	}
	for k, nv := range vals {
		cell := &kvstore.Cell{
			Row: key, Family: kvFamily,
			Qualifier: []byte(strconv.Itoa(s.setCols[k])),
			Type:      kvstore.TypePut,
		}
		if !nv.IsNull() {
			cell.Value = datum.AppendDatum(nil, nv)
		} else {
			cell.Type = kvstore.TypeDeleteColumn
		}
		s.batch = append(s.batch, cell)
	}
	return true, nil
}

func (s *kvSink) Flush(tm *sim.Meter) error {
	if len(s.batch) == 0 {
		return nil
	}
	return s.tbl.Put(s.batch, tm)
}
