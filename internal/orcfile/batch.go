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

// fillVector decodes n values of one column into v: the presence bits
// in bulk straight into its NULL flags, then the value stream in bulk
// into the head of its value slots, which spread then moves out to the
// non-NULL rows. Without NULLs the values land in place. No slot is
// written twice, and a NULL slot ends up holding the zero value.
func (br *BatchReader) fillVector(v *datum.ColumnVector, cur *columnCursor, n int) error {
	v.Shape(cur.kind, n)
	nonNull, err := cur.presence.FillNot(v.Nulls)
	if err != nil {
		return err
	}
	switch cur.kind {
	case datum.KindInt:
		err = cur.ints.Fill(v.Ints[:nonNull])
		spread(v.Ints, v.Nulls, nonNull)
	case datum.KindFloat:
		err = cur.floats.Fill(v.Floats[:nonNull])
		spread(v.Floats, v.Nulls, nonNull)
	case datum.KindBool:
		err = cur.bools.Fill(v.Bools[:nonNull])
		spread(v.Bools, v.Nulls, nonNull)
	case datum.KindString:
		if cur.dict != nil {
			err = cur.ints.FillDict(v.Strs[:nonNull], cur.dict)
		} else {
			err = br.fillDirect(v.Strs[:nonNull], cur)
		}
		spread(v.Strs, v.Nulls, nonNull)
	default:
		err = fmt.Errorf("orcfile: bad cursor kind")
	}
	return err
}

// spread moves the nonNull values packed at the head of s out to the
// slots whose NULL flag is clear, keeping their order, and zeroes the
// NULL slots. It walks from the end, where no value is overwritten
// before it moves (the k-th value never moves left), and stops once the
// slots left all hold their own values.
func spread[T any](s []T, nulls []bool, nonNull int) {
	if nonNull == 0 {
		clear(s)
		return
	}
	var zero T
	k := nonNull
	for i := len(s) - 1; i >= k; i-- {
		null := nulls[i]
		if !null {
			k--
		}
		x := s[k]
		if null {
			x = zero
		}
		s[i] = x
	}
}

// fillDirect decodes the next len(dst) strings of a column stored
// direct: their lengths, then each one sliced out of the blob and
// copied.
func (br *BatchReader) fillDirect(dst []string, cur *columnCursor) error {
	lens := br.scratchInts(len(dst))
	if err := cur.ints.Fill(lens); err != nil {
		return err
	}
	for i, l := range lens {
		end := cur.blobOff + int(l)
		if end > len(cur.blob) || end < cur.blobOff {
			return fmt.Errorf("orcfile: string blob exhausted")
		}
		dst[i] = string(cur.blob[cur.blobOff:end])
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
