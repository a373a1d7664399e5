package core

import (
	"fmt"
	"strconv"

	"dualtable/internal/datum"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/orcfile"
	"dualtable/internal/sim"
)

// unionReadSplit merges one master ORC file with the attached table's
// modifications for that file's record ID range. Both sides are
// sorted by record ID — the master because IDs are fileID<<32|rowNum
// with ascending row numbers, the attached table because its row keys
// are the big-endian IDs — so the merge is a single linear pass, as
// §V-B describes ("it only needs to read through and merge two sorted
// ID lists").
//
// The entries arrive pre-materialized from the snapshot the scan
// pinned (snapshot.go): they were read once at snapshot open,
// filtered to the epoch's attached-table watermark, and bucketed per
// file. That buys four things: predicate pushdown is disabled per
// file instead of per table (one dirty file no longer turns off
// stripe pruning for every clean file), the merge needs no scanner
// lookahead, the batch read path can classify a whole batch as clean
// with two comparisons against the sorted entry list — and scan tasks
// never touch the key-value store, so a concurrent COMPACT truncating
// the attached table cannot perturb a scan already open.
type unionReadSplit struct {
	h       *Handler
	file    masterFile
	entries []attEntry
	// attSeconds is the simulated cost of this file's attached
	// pre-scan, measured at snapshot open and charged to the task
	// meter at Open (the task "performs" the read it got the results
	// of).
	attSeconds float64
	opts       ScanOptions
	schema     datum.Schema
}

func (s *unionReadSplit) Length() int64 { return s.file.size }

// attEntry is one attached-table row (modification set) for a record.
type attEntry struct {
	rid   RecordID
	cells []kvstore.Cell
}

func (s *unionReadSplit) Open(m *sim.Meter) (mapred.RecordReader, error) {
	fr, err := s.h.e.FS.OpenMeter(s.file.path, m)
	if err != nil {
		return nil, err
	}
	rd, err := orcfile.Open(fr, fr.Size())
	if err != nil {
		fr.Close()
		return nil, err
	}
	m.AddSeconds(s.attSeconds)
	// Predicate pushdown note: a stripe may be pruned by stats even
	// though an attached update would make one of its rows match.
	// Pushdown therefore only applies to files with no attached
	// modifications — a per-file fact known from the snapshot's
	// materialized entry buckets.
	sarg := s.opts.SArg
	if sarg != nil && len(s.entries) > 0 {
		sarg = nil
	}
	return &unionReadReader{
		fr: fr,
		rd: rd,
		opts: orcfile.RowReaderOptions{
			Columns:   s.opts.Projection,
			SearchArg: sarg,
		},
		entries: s.entries,
		fileID:  s.file.fileID,
		schema:  s.schema,
		meter:   m,
	}, nil
}

// unionReadReader implements the merge. It serves records either row
// at a time (Next) or in vectorized batches (NextBatch); the MapReduce
// engine picks one mode per task and never mixes them, so the ORC-side
// machinery is created lazily for whichever mode runs.
type unionReadReader struct {
	fr      interface{ Close() error }
	rd      *orcfile.Reader
	opts    orcfile.RowReaderOptions
	rows    *orcfile.RowReader   // row mode, lazy
	batch   *orcfile.BatchReader // batch mode, lazy
	entries []attEntry
	attIdx  int
	fileID  uint32
	meter   *sim.Meter

	schema datum.Schema
	// mergedRows counts rows passed through the merge; the per-row
	// UNION READ overhead is charged in one batch at Close so the hot
	// loop performs no meter call per record (simulated seconds are
	// n·cost either way).
	mergedRows int64

	// batch-mode reusable buffers.
	cols    []datum.ColumnVector
	rowsBuf []datum.Row
	arena   datum.Row
	ids     []uint64
}

func (r *unionReadReader) Next() (datum.Row, mapred.RecordMeta, error) {
	if r.rows == nil {
		r.rows = r.rd.NewRowReader(r.opts)
	}
	for {
		row, ord, err := r.rows.Next()
		if err != nil {
			return nil, mapred.RecordMeta{}, err // io.EOF ends the stream
		}
		// Per-row merge bookkeeping (the paper's Fig. 4 "function
		// invocation" overhead, present even with an empty attached
		// table); charged in batch at Close.
		r.mergedRows++
		rid := NewRecordID(r.fileID, uint32(ord))
		// Skip attached IDs below the master row (orphans from aborted
		// writes).
		for r.attIdx < len(r.entries) && r.entries[r.attIdx].rid < rid {
			r.attIdx++
		}
		meta := mapred.RecordMeta{RecordID: uint64(rid)}
		if r.attIdx >= len(r.entries) || r.entries[r.attIdx].rid != rid {
			return row, meta, nil
		}
		// Merge the modifications in place. The ORC reader hands out a
		// reused row buffer that is refilled on the next call, so
		// writing the updated cells into it is safe and saves a clone
		// per dirty row; every column the query evaluates is part of
		// the projection, so a write to a non-projected column cannot
		// leak into later rows' visible output.
		deleted, err := mergeCells(row, r.entries[r.attIdx].cells)
		if err != nil {
			return nil, meta, fmt.Errorf("core: decode attached cell %s: %w", rid, err)
		}
		r.attIdx++
		if deleted {
			continue // row is deleted; skip to the next master row
		}
		return row, meta, nil
	}
}

// mergeCells applies one attached entry's cells to row in place,
// reporting whether the record carries a delete marker.
func mergeCells(row datum.Row, cells []kvstore.Cell) (deleted bool, err error) {
	for i := range cells {
		q := string(cells[i].Qualifier)
		if q == deleteQualifier {
			return true, nil
		}
		idx, aerr := strconv.Atoi(q)
		if aerr != nil || idx < 0 || idx >= len(row) {
			continue
		}
		d, _, derr := datum.DecodeDatum(cells[i].Value)
		if derr != nil {
			return false, derr
		}
		row[idx] = d
	}
	return false, nil
}

// NextBatch decodes the next column-vector batch and classifies it
// against the attached entries. Batches whose ID range contains no
// entries pass through untouched (the delta-sparse fast path: no
// per-row merge bookkeeping, record IDs are base+offset). Batches with
// update entries get the changed cells scattered into the vectors in
// place; only batches with delete markers (or a cell whose kind the
// vector cannot hold) fall back to materialized rows.
func (r *unionReadReader) NextBatch(b *mapred.RecordBatch) error {
	if r.batch == nil {
		r.batch = r.rd.NewBatchReader(r.opts)
		r.cols = make([]datum.ColumnVector, len(r.schema))
	}
	n, base, err := r.batch.NextBatch(r.cols, 0)
	if err != nil {
		return err // io.EOF ends the stream
	}
	r.mergedRows += int64(n)
	baseRid := NewRecordID(r.fileID, uint32(base))
	endRid := baseRid + RecordID(n)
	// Skip orphan entries below the batch, then collect the overlap.
	for r.attIdx < len(r.entries) && r.entries[r.attIdx].rid < baseRid {
		r.attIdx++
	}
	lo := r.attIdx
	for r.attIdx < len(r.entries) && r.entries[r.attIdx].rid < endRid {
		r.attIdx++
	}
	overlap := r.entries[lo:r.attIdx]

	b.Len = n
	b.Cols = r.cols
	b.Rows = nil
	b.BaseID = uint64(baseRid)
	b.IDs = nil
	if len(overlap) == 0 {
		return nil // clean batch: pure pass-through
	}
	// Dirty batch: try the in-place scatter merge first.
	for _, e := range overlap {
		slot := int(e.rid - baseRid)
		for i := range e.cells {
			q := string(e.cells[i].Qualifier)
			if q == deleteQualifier {
				return r.materializeBatch(b, n, baseRid, overlap)
			}
			idx, aerr := strconv.Atoi(q)
			if aerr != nil || idx < 0 || idx >= len(r.cols) {
				continue
			}
			d, _, derr := datum.DecodeDatum(e.cells[i].Value)
			if derr != nil {
				return fmt.Errorf("core: decode attached cell %s: %w", e.rid, derr)
			}
			if !r.cols[idx].SetDatum(slot, d) {
				return r.materializeBatch(b, n, baseRid, overlap)
			}
		}
	}
	return nil
}

// materializeBatch handles delete markers (and scatter misfits): the
// batch is rebuilt as rows with explicit record IDs, deleted records
// dropped — the same per-row path the row-mode merge takes. Updates
// already scattered into the vectors before the fallback are harmless:
// rows are re-materialized from the vectors and the remaining cells
// re-applied idempotently.
func (r *unionReadReader) materializeBatch(b *mapred.RecordBatch, n int, baseRid RecordID, overlap []attEntry) error {
	if cap(r.rowsBuf) < n {
		r.rowsBuf = make([]datum.Row, n)
	}
	if cap(r.ids) < n {
		r.ids = make([]uint64, n)
	}
	ncols := len(r.cols)
	if cap(r.arena) < n*ncols {
		r.arena = make(datum.Row, n*ncols)
	}
	rows := r.rowsBuf[:0]
	ids := r.ids[:0]
	k := 0
	for i := 0; i < n; i++ {
		rid := baseRid + RecordID(i)
		for k < len(overlap) && overlap[k].rid < rid {
			k++
		}
		row := r.arena[i*ncols : (i+1)*ncols : (i+1)*ncols]
		for c := 0; c < ncols; c++ {
			row[c] = r.cols[c].Datum(i)
		}
		if k < len(overlap) && overlap[k].rid == rid {
			deleted, err := mergeCells(row, overlap[k].cells)
			if err != nil {
				return fmt.Errorf("core: decode attached cell %s: %w", rid, err)
			}
			k++
			if deleted {
				continue
			}
		}
		rows = append(rows, row)
		ids = append(ids, uint64(rid))
	}
	b.Len = len(rows)
	b.Cols = nil
	b.Rows = rows
	b.IDs = ids
	return nil
}

func (r *unionReadReader) Close() error {
	r.meter.UnionReadRows(r.mergedRows)
	r.mergedRows = 0
	return r.fr.Close()
}
