package mapred

import (
	"dualtable/internal/datum"
	"dualtable/internal/freelist"
	"dualtable/internal/orcfile"
)

// RecordBatch carries a batch of input records through the map phase
// as column vectors: Cols holds one vector per column, each Len slots
// long, and slot i holds the record whose ID is BaseID + i. Sel lists
// the live slots, increasing; nil means every slot is live. A slot left
// out of Sel — deleted by the UNION READ merge, or skipped by a row
// reader's IDs — holds no record; counting, filtering and evaluation
// all walk Sel. The reader reuses a batch and everything it references
// between NextBatch calls; mappers must not retain them.
//
// Tag is the batch's split's entry in Job.Tags (0 when the job tags
// nothing), set once per task, so a job over several inputs — a join —
// tells them apart per batch.
type RecordBatch struct {
	Len    int
	Tag    int
	Cols   []datum.ColumnVector
	Sel    []int32
	BaseID uint64
}

// Live returns the number of live slots.
func (b *RecordBatch) Live() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.Len
}

// Slot returns the k-th live slot, k < Live().
func (b *RecordBatch) Slot(k int) int {
	if b.Sel != nil {
		return int(b.Sel[k])
	}
	return k
}

// Meta returns slot i's record metadata.
func (b *RecordBatch) Meta(i int) RecordMeta { return RecordMeta{RecordID: b.BaseID + uint64(i)} }

// RowInto materializes slot i into buf (reusing its backing when wide
// enough) for row-at-a-time consumers.
func (b *RecordBatch) RowInto(buf datum.Row, i int) datum.Row {
	return (&datum.Batch{Len: b.Len, Cols: b.Cols}).RowInto(buf, i)
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

// batchSlots bounds the ID window of one adapted batch: the batch size
// of the column readers, so both kinds of input arrive in batches alike.
const batchSlots = orcfile.DefaultBatchRows

// rowBatcher is the one row→vector adapter: it lifts a RecordReader into
// batch input, copying each row into slot rid − BaseID of vectors it
// owns. A batch ends before a row whose ID does not increase or falls
// past BaseID + batchSlots; IDs the reader skipped stay out of Sel. The
// read-ahead row opens the next batch; a read-ahead EOF or error is
// returned by the next call.
type rowBatcher struct {
	RecordReader
	vecs datum.Batch
	sel  []int32

	primed bool
	row    datum.Row // read ahead
	id     uint64
	err    error
}

func (a *rowBatcher) readAhead() {
	row, meta, err := a.Next()
	a.row, a.id, a.err, a.primed = row, meta.RecordID, err, true
}

func (a *rowBatcher) NextBatch(b *RecordBatch) error {
	if !a.primed {
		a.readAhead()
	}
	if a.err != nil {
		return a.err
	}
	// Vectors grow to the window the rows fill: a short batch costs its
	// own rows, not a full batch's reset.
	v := &a.vecs
	v.Reset(len(a.row), 0)
	base, sel := a.id, a.sel[:0]
	for {
		slot := int(a.id - base)
		for j := range v.Cols {
			v.Cols[j].Extend(slot + 1)
			v.Cols[j].Put(slot, a.row[j])
		}
		sel = append(sel, int32(slot))
		prev := a.id
		if a.readAhead(); a.err != nil || a.id <= prev || a.id-base >= batchSlots {
			break
		}
	}
	a.sel = sel
	b.Len, b.Cols, b.Sel, b.BaseID = int(sel[len(sel)-1])+1, v.Cols, sel, base
	if len(sel) == b.Len {
		b.Sel = nil
	}
	return nil
}

// rowBufs lends MapFunc.MapBatch the row it materializes records into,
// so a task reuses one buffer across its batches.
var rowBufs = freelist.New[datum.Row]()

// MapBatch is the batch→row adapter: it feeds the batch's live records
// to f one at a time, materialized into one reused buffer. Row-at-a-
// time mappers with state delegate their MapBatch here.
func (f MapFunc) MapBatch(b *RecordBatch, emit Emitter) error {
	buf := rowBufs.Get()
	defer rowBufs.Put(buf)
	for k := 0; k < b.Live(); k++ {
		i := b.Slot(k)
		*buf = b.RowInto(*buf, i)
		if err := f(*buf, b.Meta(i), emit); err != nil {
			return err
		}
	}
	return nil
}
