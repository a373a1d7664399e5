package orcfile

import (
	"fmt"
	"io"

	"dualtable/internal/datum"
)

// DefaultBatchRows is the row capacity a batch scan decodes per
// NextBatch call. ~1k rows amortizes per-call dispatch while keeping
// a batch's column vectors comfortably inside the L2 cache.
const DefaultBatchRows = 1024

// BatchReader decodes a file stripe-by-stripe into typed column
// vectors. A batch never spans a stripe boundary, so the rows of one
// batch always carry consecutive file ordinals starting at the batch's
// base ordinal — the property DualTable's UNION READ fast path uses to
// classify a whole batch against the attached table with two
// comparisons. Pruned stripes still advance the ordinal.
//
// A BatchReader borrows its scratch — stripe cursors, decoded streams,
// the vectors Vectors lends, dense buffers — from a free list and
// returns it at Close, after which another scan overwrites it: nothing
// read through the reader may be retained past Close except the values
// themselves (strings are copies). A reader dropped without Close is
// merely garbage.
type BatchReader struct {
	rd        *Reader
	opts      RowReaderOptions
	project   []bool
	stripeIdx int
	inStripe  int64
	stripeLen int64
	// rowOrdinal is the file ordinal of the next undecoded row.
	rowOrdinal int64

	*scanScratch // nil once closed
}

// NewBatchReader starts a scan.
func (rd *Reader) NewBatchReader(opts RowReaderOptions) *BatchReader {
	br := &BatchReader{rd: rd, opts: opts, project: make([]bool, len(rd.schema)), scanScratch: scratches.Get()}
	// A recycled scratch may come from a file of another width.
	br.cursors = widened(br.cursors, len(rd.schema))
	br.streams = widened(br.streams, len(rd.schema))
	br.vecs = widened(br.vecs, len(rd.schema))
	if opts.Columns == nil {
		for i := range br.project {
			br.project[i] = true
		}
	} else {
		for _, c := range opts.Columns {
			if c >= 0 && c < len(br.project) {
				br.project[c] = true
			}
		}
	}
	return br
}

// Vectors returns one vector per schema column for NextBatch to fill,
// the reader's to recycle at Close.
func (br *BatchReader) Vectors() []datum.ColumnVector { return br.vecs }

// Close hands the reader's scratch to the next scan. The reader, and
// every vector and batch obtained through it, must not be used again.
func (br *BatchReader) Close() {
	if br.scanScratch != nil {
		// A cursor points into stream cache entries and dictionaries: a
		// listed scratch must not keep them alive.
		clear(br.cursors)
		scratches.Put(br.scanScratch)
		br.scanScratch = nil
	}
}

// NextBatch decodes up to max rows (DefaultBatchRows when max <= 0)
// into cols, which must have one vector per schema column.
// Unprojected columns become all-NULL vectors, keeping column indexes
// stable. It returns the number of rows decoded and the file ordinal of
// the batch's first row; io.EOF ends the scan.
func (br *BatchReader) NextBatch(cols []datum.ColumnVector, max int) (int, int64, error) {
	if len(cols) != len(br.rd.schema) {
		return 0, 0, fmt.Errorf("orcfile: batch arity %d, schema arity %d", len(cols), len(br.rd.schema))
	}
	if br.scanScratch == nil {
		return 0, 0, fmt.Errorf("orcfile: batch reader is closed")
	}
	if max <= 0 {
		max = DefaultBatchRows
	}
	for br.inStripe >= br.stripeLen {
		if br.stripeIdx >= len(br.rd.stripes) {
			return 0, 0, io.EOF
		}
		sm := br.rd.stripes[br.stripeIdx]
		if br.opts.SearchArg != nil && !br.opts.SearchArg.MaybeMatches(sm.stats) {
			br.rowOrdinal += sm.rows
			br.stripeIdx++
			continue
		}
		if err := br.openStripeCursors(sm); err != nil {
			return 0, 0, err
		}
		br.stripeIdx++
		br.inStripe = 0
		br.stripeLen = sm.rows
	}
	n := max
	if rem := int(br.stripeLen - br.inStripe); n > rem {
		n = rem
	}
	base := br.rowOrdinal
	for i := range cols {
		if !br.project[i] {
			cols[i].Reset(datum.KindNull, n)
			continue
		}
		if err := br.fillVector(&cols[i], &br.cursors[i], n); err != nil {
			return 0, 0, fmt.Errorf("orcfile: column %s rows %d..%d: %w",
				br.rd.schema[i].Name, base, base+int64(n)-1, err)
		}
	}
	br.inStripe += int64(n)
	br.rowOrdinal += int64(n)
	return n, base, nil
}

// openStripeCursors reads and decodes the projected column streams of
// one stripe into the reader's cursors. A stream is decoded into the
// column's buffer in the scratch, or read from a shared stream cache
// entry, so a cursor is good exactly while its stripe is current.
func (br *BatchReader) openStripeCursors(sm stripeMeta) error {
	z := inflaters.Get()
	defer inflaters.Put(z)
	for i, c := range br.rd.schema {
		if !br.project[i] {
			continue
		}
		st := sm.streams[i]
		buf, e, err := br.rd.loadStream(z, &br.streams[i], int64(sm.offset+st.relOff), int(st.length))
		if err != nil {
			return fmt.Errorf("orcfile: load stripe stream: %w", err)
		}
		if err := br.cursors[i].open(c.Kind, buf, e); err != nil {
			return err
		}
	}
	return nil
}

// fillVector decodes n values of one column into v: presence bits in
// bulk, then the value stream in bulk — straight into the vector's
// positional slots when the batch has no NULLs, via a dense scratch
// buffer plus scatter otherwise.
func (br *BatchReader) fillVector(v *datum.ColumnVector, cur *columnCursor, n int) error {
	if cap(br.present) < n {
		br.present = make([]bool, n)
	}
	present := br.present[:n]
	if err := cur.presence.Fill(present); err != nil {
		return err
	}
	v.Reset(cur.kind, n)
	nonNull := 0
	for i, p := range present {
		if p {
			v.Nulls[i] = false
			nonNull++
		}
	}
	dense := nonNull == n
	switch cur.kind {
	case datum.KindInt:
		if dense {
			return cur.ints.Fill(v.Ints)
		}
		if err := cur.ints.Fill(br.scratchInts(nonNull)); err != nil {
			return err
		}
		k := 0
		for i, p := range present {
			if p {
				v.Ints[i] = br.ints[k]
				k++
			}
		}
	case datum.KindFloat:
		if dense {
			return cur.floats.Fill(v.Floats)
		}
		if cap(br.floats) < nonNull {
			br.floats = make([]float64, nonNull)
		}
		if err := cur.floats.Fill(br.floats[:nonNull]); err != nil {
			return err
		}
		k := 0
		for i, p := range present {
			if p {
				v.Floats[i] = br.floats[k]
				k++
			}
		}
	case datum.KindBool:
		if dense {
			return cur.bools.Fill(v.Bools)
		}
		if cap(br.bools) < nonNull {
			br.bools = make([]bool, nonNull)
		}
		if err := cur.bools.Fill(br.bools[:nonNull]); err != nil {
			return err
		}
		k := 0
		for i, p := range present {
			if p {
				v.Bools[i] = br.bools[k]
				k++
			}
		}
	case datum.KindString:
		return br.fillStrings(v, cur, present, nonNull)
	default:
		return fmt.Errorf("orcfile: bad cursor kind")
	}
	return nil
}

// fillStrings decodes n string slots: dictionary indexes map to shared
// dict entries (no per-value allocation); direct mode slices the blob
// and converts.
func (br *BatchReader) fillStrings(v *datum.ColumnVector, cur *columnCursor, present []bool, nonNull int) error {
	vals := br.scratchInts(nonNull)
	if cur.dict != nil {
		if err := cur.ints.Fill(vals); err != nil {
			return err
		}
		k := 0
		for i, p := range present {
			if !p {
				continue
			}
			idx := vals[k]
			k++
			if idx < 0 || int(idx) >= len(cur.dict) {
				return fmt.Errorf("orcfile: dict index %d out of range", idx)
			}
			v.Strs[i] = cur.dict[idx]
		}
		return nil
	}
	if err := cur.ints.Fill(vals); err != nil {
		return err
	}
	k := 0
	for i, p := range present {
		if !p {
			continue
		}
		end := cur.blobOff + int(vals[k])
		k++
		if end > len(cur.blob) || end < cur.blobOff {
			return fmt.Errorf("orcfile: string blob exhausted")
		}
		v.Strs[i] = string(cur.blob[cur.blobOff:end])
		cur.blobOff = end
	}
	return nil
}

func (br *BatchReader) scratchInts(n int) []int64 {
	if cap(br.ints) < n {
		br.ints = make([]int64, n)
	}
	return br.ints[:n]
}
