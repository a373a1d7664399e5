package orcfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"dualtable/internal/datum"
)

// File layout:
//
//	[stripe 1] ... [stripe N]
//	[footer]        (optionally flate-compressed)
//	[tail: footerOff u64 | footerLen u64 | flags u64 | magic u64]
//
// Stripe layout: the concatenation of one stream per column, each
// stream independently compressed. Stream content:
//
//	presence bitmap (ceil(rows/8) bytes, bit set = non-null)
//	data section, type-specific:
//	  BIGINT  RLE ints
//	  DOUBLE  raw 8-byte LE
//	  BOOLEAN bit-packed
//	  STRING  0x00 direct:     lengths RLE, then concatenated bytes
//	          0x01 dictionary: dict size RLE-lens+bytes, indices RLE
const (
	orcMagic = 0x4455414C4F524331 // "DUALORC1"
	// TailSize is the length of the fixed tail that ends every file and
	// locates its footer — the first read Open makes.
	TailSize  = 32
	flagFlate = 1 << 0
	// DefaultStripeRows is the writer's default stripe size in rows.
	DefaultStripeRows = 10000
	// dictionaryThreshold: use a dictionary when distinct/total <= 0.5.
	dictionaryThreshold = 0.5
)

// WriterOptions configures a Writer.
type WriterOptions struct {
	// StripeRows is the number of rows per stripe.
	StripeRows int
	// Compression enables flate compression of streams and footer.
	Compression bool
	// UserMeta is stored in the footer (e.g. the DualTable file ID).
	UserMeta map[string]string
}

// Writer streams rows into an ORC-like file. The destination only
// needs io.Writer (no seeking), so it can write straight to a DFS
// file. The first error a call returns sticks: every later call
// returns it, and Close then writes no footer, so a file whose columns
// a failed call left at different row counts never becomes readable.
type Writer struct {
	w      io.Writer
	schema datum.Schema
	opts   WriterOptions

	scratch   *columnScratch // borrowed at NewWriter, returned at Close
	cols      []columnBuilder
	rowsIn    int // rows in current stripe
	totalRows int64
	offset    uint64 // bytes written so far
	stripes   []stripeMeta
	fileStats []ColumnStats
	err       error     // the first error, or errClosed after Close
	z         *deflater // borrowed at the first compressed stream, returned at Close
}

var errClosed = errors.New("orcfile: writer closed")

type stripeMeta struct {
	offset  uint64
	length  uint64
	rows    int64
	streams []streamMeta // per column
	stats   []ColumnStats
}

type streamMeta struct {
	relOff uint64
	length uint64
}

// columnBuilder accumulates one column's values for the current
// stripe. Everything but kind is scratch that outlives the stripe.
type columnBuilder struct {
	kind     datum.Kind
	presence bitWriter
	ints     intEncoder
	floats   floatEncoder
	bools    bitWriter
	strs     []string
	stats    stripeStats

	stream []byte // the encoded stream

	// The string section's: the distinct values numbered in order of
	// first appearance (dict, firsts), each string's number (ids), the
	// numbers in dictionary order (order) and each one's rank in it, and
	// the encoder of the lengths or indexes.
	dict   map[string]int32
	firsts []string
	ids    []int32
	order  []int32
	rank   []int32
	aux    intEncoder
}

// NewWriter creates a writer emitting rows of the given schema.
func NewWriter(w io.Writer, schema datum.Schema, opts WriterOptions) (*Writer, error) {
	if len(schema) == 0 {
		return nil, fmt.Errorf("orcfile: empty schema")
	}
	if opts.StripeRows <= 0 {
		opts.StripeRows = DefaultStripeRows
	}
	sc := columnScratches.Get()
	sc.cols = widened(sc.cols, len(schema))
	for i, c := range schema {
		sc.cols[i].kind = c.Kind
	}
	return &Writer{w: w, schema: schema.Clone(), opts: opts, scratch: sc, cols: sc.cols,
		fileStats: make([]ColumnStats, len(schema))}, nil
}

// Schema returns the writer's schema.
func (w *Writer) Schema() datum.Schema { return w.schema }

// WriteRow appends one row; datums must match the schema kinds (NULLs
// allowed anywhere).
func (w *Writer) WriteRow(row datum.Row) error {
	if w.err != nil {
		return w.err
	}
	if len(row) != len(w.schema) {
		return w.fail(fmt.Errorf("orcfile: row arity %d, schema arity %d", len(row), len(w.schema)))
	}
	for i, d := range row {
		if !w.cols[i].append(d) {
			return w.kindError(i, d)
		}
	}
	w.rowsIn++
	w.totalRows++
	if w.rowsIn >= w.opts.StripeRows {
		return w.fail(w.flushStripe())
	}
	return nil
}

// WriteBatch appends b's rows in order, writing exactly the bytes a
// WriteRow per row would: a stripe that fills inside the batch is
// flushed there. A column vector holds the schema's kind, or is all
// NULL, or is mixed with values of that kind.
func (w *Writer) WriteBatch(b *datum.Batch) error {
	if w.err != nil {
		return w.err
	}
	if len(b.Cols) != len(w.schema) {
		return w.fail(fmt.Errorf("orcfile: batch arity %d, schema arity %d", len(b.Cols), len(w.schema)))
	}
	for from := 0; from < b.Len; {
		to := min(b.Len, from+w.opts.StripeRows-w.rowsIn)
		for j := range w.cols {
			if i := w.cols[j].appendVector(&b.Cols[j], from, to); i >= 0 {
				return w.kindError(j, b.Cols[j].Datum(i))
			}
		}
		w.rowsIn += to - from
		w.totalRows += int64(to - from)
		from = to
		if w.rowsIn >= w.opts.StripeRows {
			if err := w.flushStripe(); err != nil {
				return w.fail(err)
			}
		}
	}
	return nil
}

// fail makes err, when there is one, the writer's sticky error.
func (w *Writer) fail(err error) error {
	if err != nil && w.err == nil {
		w.err = err
	}
	return err
}

func (w *Writer) kindError(col int, d datum.Datum) error {
	return w.fail(fmt.Errorf("orcfile: column %s expects %s, got %s", w.schema[col].Name, w.cols[col].kind, d.K))
}

// append adds one value; false means d is of another kind.
func (cb *columnBuilder) append(d datum.Datum) bool {
	if d.IsNull() {
		cb.stats.nulls++
		cb.presence.Append(false)
		return true
	}
	if d.K != cb.kind {
		return false
	}
	cb.presence.Append(true)
	switch cb.kind {
	case datum.KindInt:
		cb.stats.addInt(d.I)
		cb.ints.Append(d.I)
	case datum.KindFloat:
		cb.stats.addFloat(d.F)
		cb.floats.Append(d.F)
	case datum.KindBool:
		cb.stats.addBool(d.B)
		cb.bools.Append(d.B)
	case datum.KindString:
		cb.stats.addString(d.S)
		cb.strs = append(cb.strs, d.S)
	}
	return true
}

// appendVector adds rows [from, to) of v and returns -1, or the first
// row whose value is of another kind. A typed vector of the column's
// kind appends a column at a time: the presence bits in one pass, the
// values in bulk where the range holds no NULL, and one loop over the
// slice that folds the statistics (and appends the values where it
// does). Any other vector goes datum by datum.
func (cb *columnBuilder) appendVector(v *datum.ColumnVector, from, to int) int {
	if v.Kind != cb.kind || len(v.Datums) > 0 {
		for i := from; i < to; i++ {
			if !cb.append(v.Datum(i)) {
				return i
			}
		}
		return -1
	}
	nulls := v.Nulls[from:to]
	nn := cb.presence.AppendNot(nulls)
	cb.stats.nulls += int64(nn)
	switch cb.kind {
	case datum.KindInt:
		vals := v.Ints[from:to]
		if nn == 0 {
			cb.ints.AppendAll(vals)
		}
		for i, x := range vals {
			if !nulls[i] {
				cb.stats.addInt(x)
				if nn > 0 {
					cb.ints.Append(x)
				}
			}
		}
	case datum.KindFloat:
		vals := v.Floats[from:to]
		if nn == 0 {
			cb.floats.AppendAll(vals)
		}
		for i, x := range vals {
			if !nulls[i] {
				cb.stats.addFloat(x)
				if nn > 0 {
					cb.floats.Append(x)
				}
			}
		}
	case datum.KindBool:
		for i, x := range v.Bools[from:to] {
			if !nulls[i] {
				cb.stats.addBool(x)
				cb.bools.Append(x)
			}
		}
	case datum.KindString:
		vals := v.Strs[from:to]
		if nn == 0 {
			cb.strs = append(cb.strs, vals...)
		}
		for i, x := range vals {
			if !nulls[i] {
				cb.stats.addString(x)
				if nn > 0 {
					cb.strs = append(cb.strs, x)
				}
			}
		}
	}
	return -1
}

// flushStripe encodes and writes the buffered stripe.
func (w *Writer) flushStripe() error {
	if w.rowsIn == 0 {
		return nil
	}
	sm := stripeMeta{offset: w.offset, rows: int64(w.rowsIn),
		streams: make([]streamMeta, 0, len(w.cols)), stats: make([]ColumnStats, 0, len(w.cols))}
	var rel uint64
	for i := range w.cols {
		cb := &w.cols[i]
		raw := cb.encodeStream()
		stream, err := w.maybeCompress(raw)
		if err != nil {
			return err
		}
		if w.opts.Compression {
			// The stream a scan of this file would inflate next.
			cache.seed(stream, raw)
		}
		if _, err := w.w.Write(stream); err != nil {
			return err
		}
		sm.streams = append(sm.streams, streamMeta{relOff: rel, length: uint64(len(stream))})
		rel += uint64(len(stream))
		st := cb.stats.columnStats(cb.kind)
		sm.stats = append(sm.stats, st)
		w.fileStats[i].Merge(st)
		cb.reset()
	}
	sm.length = rel
	w.offset += rel
	w.stripes = append(w.stripes, sm)
	w.rowsIn = 0
	return nil
}

// encodeStream builds the uncompressed column stream in cb.stream,
// valid until the builder's next encode.
func (cb *columnBuilder) encodeStream() []byte {
	presence := cb.presence.Finish()
	out := binary.AppendUvarint(cb.stream[:0], uint64(len(presence)))
	out = append(out, presence...)
	switch cb.kind {
	case datum.KindInt:
		out = append(out, cb.ints.Finish()...)
	case datum.KindFloat:
		out = append(out, cb.floats.Finish()...)
	case datum.KindBool:
		out = append(out, cb.bools.Finish()...)
	case datum.KindString:
		out = cb.appendStringSection(out)
	}
	cb.stream = out
	return out
}

// appendStringSection chooses dictionary or direct encoding. A
// dictionary may hold at most half as many values as there are strings,
// so numbering the distinct values stops at the first one too many; a
// string equal to the one before it (a run) skips the map.
func (cb *columnBuilder) appendStringSection(out []byte) []byte {
	strs := cb.strs
	if cb.dict == nil {
		cb.dict = map[string]int32{}
	}
	maxDict := int(dictionaryThreshold * float64(len(strs)))
	firsts, ids := cb.firsts[:0], cb.ids[:0]
	for i, s := range strs {
		if i > 0 && s == strs[i-1] {
			ids = append(ids, ids[i-1])
			continue
		}
		id, ok := cb.dict[s]
		if !ok {
			if len(firsts) == maxDict {
				break
			}
			id = int32(len(firsts))
			cb.dict[s] = id
			firsts = append(firsts, s)
		}
		ids = append(ids, id)
	}
	cb.firsts, cb.ids = firsts, ids
	enc := &cb.aux
	if len(strs) == 0 || len(ids) < len(strs) {
		out = append(out, 0x00) // direct
		for _, s := range strs {
			enc.Append(int64(len(s)))
		}
		lens := enc.Finish()
		out = binary.AppendUvarint(out, uint64(len(lens)))
		out = append(out, lens...)
		for _, s := range strs {
			out = append(out, s...)
		}
		return out
	}
	// Dictionary: sorted for deterministic output and future range
	// optimizations.
	order := cb.order[:0]
	for id := range firsts {
		order = append(order, int32(id))
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(firsts[a], firsts[b]) })
	rank := widened(cb.rank, len(firsts))
	cb.order, cb.rank = order, rank
	out = append(out, 0x01)
	out = binary.AppendUvarint(out, uint64(len(order)))
	for r, id := range order {
		out = appendBytesVal(out, firsts[id])
		rank[id] = int32(r)
	}
	for _, id := range ids {
		enc.Append(int64(rank[id]))
	}
	idx := enc.Finish()
	out = binary.AppendUvarint(out, uint64(len(idx)))
	return append(out, idx...)
}

// reset empties the builder for the next stripe, keeping its buffers;
// nothing it keeps refers to a string it was given.
func (cb *columnBuilder) reset() {
	cb.presence.Reset()
	cb.ints.Reset()
	cb.floats.Reset()
	cb.bools.Reset()
	clear(cb.strs)
	cb.strs = cb.strs[:0]
	cb.stats = stripeStats{}
	clear(cb.dict)
	clear(cb.firsts)
	cb.firsts = cb.firsts[:0]
	cb.aux.Reset()
}

// maybeCompress returns b deflated when the file is compressed. The
// result is valid until the next call.
func (w *Writer) maybeCompress(b []byte) ([]byte, error) {
	if !w.opts.Compression {
		return b, nil
	}
	if w.z == nil {
		w.z = deflaters.Get()
	}
	return w.z.deflate(b)
}

// Close flushes the final stripe and writes the footer and tail, unless
// an earlier call failed: then it returns that error and writes
// nothing. Either way the writer's scratch goes back to its free lists.
func (w *Writer) Close() error {
	if w.err == nil {
		w.err = w.finish()
	}
	if w.z != nil {
		deflaters.Put(w.z)
		w.z = nil
	}
	if w.scratch != nil {
		for i := range w.cols {
			w.cols[i].reset()
		}
		columnScratches.Put(w.scratch)
		w.scratch, w.cols = nil, nil
	}
	err := w.err
	if err == nil {
		w.err = errClosed
	}
	return err
}

// finish flushes the final stripe and writes the footer and tail.
func (w *Writer) finish() error {
	if err := w.flushStripe(); err != nil {
		return err
	}
	w.scratch.footer = w.appendFooter(w.scratch.footer[:0])
	footer, err := w.maybeCompress(w.scratch.footer)
	if err != nil {
		return err
	}
	footerOff := w.offset
	if _, err := w.w.Write(footer); err != nil {
		return err
	}
	var flags uint64
	if w.opts.Compression {
		flags |= flagFlate
	}
	var tail [TailSize]byte
	binary.LittleEndian.PutUint64(tail[0:], footerOff)
	binary.LittleEndian.PutUint64(tail[8:], uint64(len(footer)))
	binary.LittleEndian.PutUint64(tail[16:], flags)
	binary.LittleEndian.PutUint64(tail[24:], orcMagic)
	_, err = w.w.Write(tail[:])
	return err
}

// appendFooter serializes schema, user metadata, stripe directory and
// file statistics.
func (w *Writer) appendFooter(out []byte) []byte {
	out = binary.AppendUvarint(out, uint64(len(w.schema)))
	for _, c := range w.schema {
		out = appendBytesVal(out, c.Name)
		out = append(out, byte(c.Kind))
	}
	out = binary.AppendUvarint(out, uint64(len(w.opts.UserMeta)))
	keys := make([]string, 0, len(w.opts.UserMeta))
	for k := range w.opts.UserMeta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = appendBytesVal(out, k)
		out = appendBytesVal(out, w.opts.UserMeta[k])
	}
	out = binary.AppendUvarint(out, uint64(w.totalRows))
	out = binary.AppendUvarint(out, uint64(len(w.stripes)))
	for _, sm := range w.stripes {
		out = binary.AppendUvarint(out, sm.offset)
		out = binary.AppendUvarint(out, sm.length)
		out = binary.AppendUvarint(out, uint64(sm.rows))
		for _, st := range sm.streams {
			out = binary.AppendUvarint(out, st.relOff)
			out = binary.AppendUvarint(out, st.length)
		}
		for i := range sm.stats {
			out = sm.stats[i].marshal(out)
		}
	}
	for i := range w.fileStats {
		out = w.fileStats[i].marshal(out)
	}
	return out
}

// NumRows returns the rows written so far.
func (w *Writer) NumRows() int64 { return w.totalRows }
