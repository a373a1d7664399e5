package mapred

import (
	"dualtable/internal/datum"
)

// RecordBatch carries a batch of input records through the map phase
// in one of two representations:
//
//   - Columnar: Cols holds one typed vector per column (all of length
//     Len) and record IDs are BaseID + row index. This is the fast
//     path storage readers produce for untouched data.
//   - Row: Rows holds materialized rows (len Len) and IDs, when
//     non-nil, holds each row's record ID (BaseID + index otherwise).
//     Readers fall back to this shape when per-row work was already
//     necessary (e.g. a UNION READ merge that dropped deleted rows),
//     and it is the shape row readers are adapted up to.
//
// Exactly one of Cols/Rows is non-nil. Batches and everything they
// reference are reused by the reader between NextBatch calls; mappers
// must not retain them (the same contract as row readers' row reuse).
//
// Tag is the batch's split's entry in Job.Tags (0 when the job tags
// nothing): the engine sets it once per task and readers leave it
// alone, so a job over several inputs — a join — tells them apart per
// batch instead of per record.
type RecordBatch struct {
	Len    int
	Tag    int
	Cols   []datum.ColumnVector
	Rows   []datum.Row
	BaseID uint64
	IDs    []uint64

	rowBuf datum.Row // MapFunc.MapBatch's materialization scratch
}

// Meta returns row i's record metadata.
func (b *RecordBatch) Meta(i int) RecordMeta {
	if b.IDs != nil {
		return RecordMeta{RecordID: b.IDs[i]}
	}
	return RecordMeta{RecordID: b.BaseID + uint64(i)}
}

// RowInto materializes row i into buf (reusing its backing when wide
// enough) for row-at-a-time consumers of columnar batches.
func (b *RecordBatch) RowInto(buf datum.Row, i int) datum.Row {
	if b.Rows != nil {
		return b.Rows[i]
	}
	if cap(buf) < len(b.Cols) {
		buf = make(datum.Row, len(b.Cols))
	}
	buf = buf[:len(b.Cols)]
	for c := range b.Cols {
		buf[c] = b.Cols[c].Datum(i)
	}
	return buf
}

// BatchRecordReader is a RecordReader that can also deliver its
// records in batches. The engine drives whichever shape it prefers but
// never mixes the two on one reader.
type BatchRecordReader interface {
	RecordReader
	// NextBatch fills b with the next records; EOF ends the stream.
	// The reader owns b's contents until the next call.
	NextBatch(b *RecordBatch) error
}

// rowBatcher is the row→batch adapter: it lifts a RecordReader into
// the map loop's batch input, one single-row batch per Next call (the
// reader may reuse its row, so rows cannot be gathered without a
// copy). It sits at the reader boundary so no mapper needs a row
// entry point.
type rowBatcher struct {
	RecordReader
	row [1]datum.Row
	id  [1]uint64
}

func (a *rowBatcher) NextBatch(b *RecordBatch) error {
	row, meta, err := a.Next()
	if err != nil {
		return err
	}
	a.row[0], a.id[0] = row, meta.RecordID
	b.Len, b.Cols, b.Rows, b.IDs = 1, nil, a.row[:], a.id[:]
	return nil
}

// MapBatch is the batch→row adapter: it feeds the batch to f one
// record at a time, materializing columnar rows into a buffer reused
// across the task's batches. Row-at-a-time mappers with state delegate
// their MapBatch here.
func (f MapFunc) MapBatch(b *RecordBatch, emit Emitter) error {
	if b.Rows == nil && cap(b.rowBuf) < len(b.Cols) {
		b.rowBuf = make(datum.Row, len(b.Cols))
	}
	buf := b.rowBuf // wide enough: RowInto never regrows it
	for i := 0; i < b.Len; i++ {
		if err := f(b.RowInto(buf, i), b.Meta(i), emit); err != nil {
			return err
		}
	}
	return nil
}
