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
// cell (family "d", qualifier = column index). Scans stream whole
// regions through the MapReduce engine; point DML uses native puts
// and tombstones (the paper implements this baseline's EDIT-like
// plans with user defined functions, §VI-B).
type kvHandler struct {
	e *Engine
}

const kvFamily = "d"

func kvTableName(desc *metastore.TableDesc) string {
	if n := desc.Properties["kv.table"]; n != "" {
		return n
	}
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
	var splits []mapred.InputSplit
	for _, reg := range tbl.Regions() {
		splits = append(splits, &kvSplit{
			tbl:    tbl,
			start:  reg.Start(),
			end:    reg.End(),
			schema: desc.Schema,
			size:   tbl.Size() / int64(tbl.RegionCount()),
		})
	}
	return splits, noRelease, nil
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
	tbl, err := h.table(desc)
	if err != nil {
		return nil, nil, err
	}
	return &kvOutputFactory{h: h, tbl: tbl, schema: desc.Schema}, nopCommitter{}, nil
}

func (h *kvHandler) Overwrite(desc *metastore.TableDesc) (mapred.OutputFactory, Committer, error) {
	// Truncate then append; commit is trivial (no staging for the KV
	// baseline — Hive-on-HBase overwrite behaves the same way).
	if err := h.e.KV.TruncateTable(kvTableName(desc)); err != nil {
		return nil, nil, err
	}
	tbl, err := h.table(desc)
	if err != nil {
		return nil, nil, err
	}
	return &kvOutputFactory{h: h, tbl: tbl, schema: desc.Schema}, nopCommitter{}, nil
}

// rowKey builds the 8-byte big-endian key for a row id.
func rowKey(id uint64) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], id)
	return k[:]
}

// kvOutputFactory writes rows as cells.
type kvOutputFactory struct {
	h      *kvHandler
	tbl    *kvstore.Table
	schema datum.Schema
	mu     sync.Mutex
}

func (f *kvOutputFactory) NewCollector(taskID int, m *sim.Meter) (mapred.Collector, error) {
	return &kvCollector{f: f, meter: m}, nil
}

type kvCollector struct {
	f     *kvOutputFactory
	meter *sim.Meter
	batch []*kvstore.Cell
}

func (c *kvCollector) Collect(row datum.Row) error {
	id := c.f.h.e.KV.NextTs()
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
	err := c.f.tbl.Put(c.batch, c.meter)
	c.batch = c.batch[:0]
	return err
}

func (c *kvCollector) Close() error { return c.flush() }

// kvSplit scans one region range.
type kvSplit struct {
	tbl    *kvstore.Table
	start  []byte
	end    []byte
	schema datum.Schema
	size   int64
}

func (s *kvSplit) Length() int64 { return s.size }

func (s *kvSplit) Open(m *sim.Meter) (mapred.RecordReader, error) {
	rs := s.tbl.NewRowScanner(kvstore.Scan{Start: s.start, End: s.end, Meter: m})
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
func (h *kvHandler) ExecUpdate(ec *ExecContext, e *Engine, desc *metastore.TableDesc, stmt *sqlparser.UpdateStmt, m *sim.Meter) (int64, string, error) {
	tbl, err := h.table(desc)
	if err != nil {
		return 0, "", err
	}
	alias := stmt.Alias
	if alias == "" {
		alias = stmt.Table
	}
	var whereFn func(datum.Row) (datum.Datum, error)
	if stmt.Where != nil {
		whereFn, err = e.CompileRowExpr(ec, stmt.Where, stmt.Table, alias, desc.Schema)
		if err != nil {
			return 0, "", err
		}
	}
	type setCol struct {
		idx int
		fn  func(datum.Row) (datum.Datum, error)
	}
	sets := make([]setCol, 0, len(stmt.Sets))
	for _, s := range stmt.Sets {
		idx := desc.Schema.ColumnIndex(s.Column)
		fn, err := e.CompileRowExpr(ec, s.Value, stmt.Table, alias, desc.Schema)
		if err != nil {
			return 0, "", err
		}
		sets = append(sets, setCol{idx: idx, fn: fn})
	}

	splits, release, err := h.Splits(desc, ScanOptions{})
	if err != nil {
		return 0, "", err
	}
	defer release()
	var affected int64
	job := &mapred.Job{
		Name:   "kv-update",
		Splits: splits,
		NewMapper: func() mapred.Mapper {
			var batch []*kvstore.Cell
			return &funcMapper{
				mapFn: func(tm *sim.Meter, row datum.Row, meta mapred.RecordMeta, emit mapred.Emitter) error {
					if whereFn != nil {
						ok, err := whereFn(row)
						if err != nil {
							return err
						}
						if !ok.Truthy() {
							return nil
						}
					}
					key := rowKey(meta.RecordID)
					for _, s := range sets {
						nv, err := s.fn(row)
						if err != nil {
							return err
						}
						nv, err = datum.Coerce(nv, desc.Schema[s.idx].Kind)
						if err != nil {
							return err
						}
						cell := &kvstore.Cell{
							Row: key, Family: kvFamily,
							Qualifier: []byte(strconv.Itoa(s.idx)),
							Type:      kvstore.TypePut,
						}
						if !nv.IsNull() {
							cell.Value = datum.AppendDatum(nil, nv)
						} else {
							cell.Type = kvstore.TypeDeleteColumn
						}
						batch = append(batch, cell)
					}
					return emit(nil, datum.Row{datum.Int(1)})
				},
				flushFn: func(tm *sim.Meter, emit mapred.Emitter) error {
					if len(batch) == 0 {
						return nil
					}
					return tbl.Put(batch, tm)
				},
			}
		},
	}
	res, err := e.MR.RunContext(ec.Context(), job)
	if err != nil {
		return 0, "", err
	}
	m.AddSeconds(res.SimSeconds)
	affected = res.Counters.OutputRecords
	return affected, "EDIT-UDF", nil
}

// ExecDelete scans matching rows and writes row tombstones.
func (h *kvHandler) ExecDelete(ec *ExecContext, e *Engine, desc *metastore.TableDesc, stmt *sqlparser.DeleteStmt, m *sim.Meter) (int64, string, error) {
	tbl, err := h.table(desc)
	if err != nil {
		return 0, "", err
	}
	alias := stmt.Alias
	if alias == "" {
		alias = stmt.Table
	}
	var whereFn func(datum.Row) (datum.Datum, error)
	if stmt.Where != nil {
		whereFn, err = e.CompileRowExpr(ec, stmt.Where, stmt.Table, alias, desc.Schema)
		if err != nil {
			return 0, "", err
		}
	}
	splits, release, err := h.Splits(desc, ScanOptions{})
	if err != nil {
		return 0, "", err
	}
	defer release()
	job := &mapred.Job{
		Name:   "kv-delete",
		Splits: splits,
		NewMapper: func() mapred.Mapper {
			var batch []*kvstore.Cell
			return &funcMapper{
				mapFn: func(tm *sim.Meter, row datum.Row, meta mapred.RecordMeta, emit mapred.Emitter) error {
					if whereFn != nil {
						ok, err := whereFn(row)
						if err != nil {
							return err
						}
						if !ok.Truthy() {
							return nil
						}
					}
					batch = append(batch, &kvstore.Cell{Row: rowKey(meta.RecordID), Type: kvstore.TypeDeleteRow})
					return emit(nil, datum.Row{datum.Int(1)})
				},
				flushFn: func(tm *sim.Meter, emit mapred.Emitter) error {
					if len(batch) == 0 {
						return nil
					}
					return tbl.Put(batch, tm)
				},
			}
		},
	}
	res, err := e.MR.RunContext(ec.Context(), job)
	if err != nil {
		return 0, "", err
	}
	m.AddSeconds(res.SimSeconds)
	return res.Counters.OutputRecords, "EDIT-UDF", nil
}

// funcMapper adapts map/flush closures with state. It is MeterAware
// so side-effect puts charge the task meter (parallel in the
// makespan).
type funcMapper struct {
	meter   *sim.Meter
	mapFn   func(*sim.Meter, datum.Row, mapred.RecordMeta, mapred.Emitter) error
	flushFn func(*sim.Meter, mapred.Emitter) error
}

// SetMeter receives the task meter.
func (f *funcMapper) SetMeter(m *sim.Meter) { f.meter = m }

func (f *funcMapper) Map(row datum.Row, meta mapred.RecordMeta, emit mapred.Emitter) error {
	return f.mapFn(f.meter, row, meta, emit)
}

func (f *funcMapper) MapBatch(b *mapred.RecordBatch, emit mapred.Emitter) error {
	return mapred.MapFunc(f.Map).MapBatch(b, emit)
}

func (f *funcMapper) Flush(emit mapred.Emitter) error {
	if f.flushFn == nil {
		return nil
	}
	return f.flushFn(f.meter, emit)
}
