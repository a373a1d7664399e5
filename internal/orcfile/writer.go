package orcfile

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

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
// file.
type Writer struct {
	w      io.Writer
	schema datum.Schema
	opts   WriterOptions

	cols      []*columnBuilder
	rowsIn    int // rows in current stripe
	totalRows int64
	offset    uint64 // bytes written so far
	stripes   []stripeMeta
	fileStats []ColumnStats
	closed    bool
	z         *deflater // borrowed at the first compressed stream, returned at Close
}

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
// stripe.
type columnBuilder struct {
	kind     datum.Kind
	presence bitWriter
	ints     intEncoder
	floats   floatEncoder
	bools    bitWriter
	strs     []string
	stats    ColumnStats
}

// NewWriter creates a writer emitting rows of the given schema.
func NewWriter(w io.Writer, schema datum.Schema, opts WriterOptions) (*Writer, error) {
	if len(schema) == 0 {
		return nil, fmt.Errorf("orcfile: empty schema")
	}
	if opts.StripeRows <= 0 {
		opts.StripeRows = DefaultStripeRows
	}
	wr := &Writer{w: w, schema: schema.Clone(), opts: opts,
		fileStats: make([]ColumnStats, len(schema))}
	for _, c := range schema {
		wr.cols = append(wr.cols, &columnBuilder{kind: c.Kind})
	}
	return wr, nil
}

// Schema returns the writer's schema.
func (w *Writer) Schema() datum.Schema { return w.schema }

// WriteRow appends one row; datums must match the schema kinds (NULLs
// allowed anywhere).
func (w *Writer) WriteRow(row datum.Row) error {
	if w.closed {
		return fmt.Errorf("orcfile: writer closed")
	}
	if len(row) != len(w.schema) {
		return fmt.Errorf("orcfile: row arity %d, schema arity %d", len(row), len(w.schema))
	}
	for i, d := range row {
		if !w.cols[i].append(d) {
			return w.kindError(i, d)
		}
	}
	w.rowsIn++
	w.totalRows++
	if w.rowsIn >= w.opts.StripeRows {
		return w.flushStripe()
	}
	return nil
}

// WriteBatch appends b's rows in order, writing exactly the bytes a
// WriteRow per row would: a stripe that fills inside the batch is
// flushed there. A column vector holds the schema's kind, or is all
// NULL, or is mixed with values of that kind.
func (w *Writer) WriteBatch(b *datum.Batch) error {
	if w.closed {
		return fmt.Errorf("orcfile: writer closed")
	}
	if len(b.Cols) != len(w.schema) {
		return fmt.Errorf("orcfile: batch arity %d, schema arity %d", len(b.Cols), len(w.schema))
	}
	for from := 0; from < b.Len; {
		to := min(b.Len, from+w.opts.StripeRows-w.rowsIn)
		for j, cb := range w.cols {
			if i := cb.appendVector(&b.Cols[j], from, to); i >= 0 {
				return w.kindError(j, b.Cols[j].Datum(i))
			}
		}
		w.rowsIn += to - from
		w.totalRows += int64(to - from)
		from = to
		if w.rowsIn >= w.opts.StripeRows {
			if err := w.flushStripe(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *Writer) kindError(col int, d datum.Datum) error {
	return fmt.Errorf("orcfile: column %s expects %s, got %s", w.schema[col].Name, w.cols[col].kind, d.K)
}

// append adds one value; false means d is of another kind.
func (cb *columnBuilder) append(d datum.Datum) bool {
	if d.IsNull() {
		cb.stats.Update(d)
		cb.presence.Append(false)
		return true
	}
	if d.K != cb.kind {
		return false
	}
	cb.stats.Update(d)
	cb.presence.Append(true)
	switch cb.kind {
	case datum.KindInt:
		cb.ints.Append(d.I)
	case datum.KindFloat:
		cb.floats.Append(d.F)
	case datum.KindBool:
		cb.bools.Append(d.B)
	case datum.KindString:
		cb.strs = append(cb.strs, d.S)
	}
	return true
}

// appendVector adds rows [from, to) of v and returns -1, or the first
// row whose value is of another kind. A typed vector of the column's
// kind appends from its slice; any other goes datum by datum.
func (cb *columnBuilder) appendVector(v *datum.ColumnVector, from, to int) int {
	if v.Kind != cb.kind || len(v.Datums) > 0 {
		for i := from; i < to; i++ {
			if !cb.append(v.Datum(i)) {
				return i
			}
		}
		return -1
	}
	for i := from; i < to; i++ {
		if v.Nulls[i] {
			cb.stats.Update(datum.Null)
			cb.presence.Append(false)
			continue
		}
		cb.presence.Append(true)
		switch cb.kind {
		case datum.KindInt:
			cb.stats.Update(datum.Int(v.Ints[i]))
			cb.ints.Append(v.Ints[i])
		case datum.KindFloat:
			cb.stats.Update(datum.Float(v.Floats[i]))
			cb.floats.Append(v.Floats[i])
		case datum.KindBool:
			cb.stats.Update(datum.Bool(v.Bools[i]))
			cb.bools.Append(v.Bools[i])
		case datum.KindString:
			cb.stats.Update(datum.String_(v.Strs[i]))
			cb.strs = append(cb.strs, v.Strs[i])
		}
	}
	return -1
}

// flushStripe encodes and writes the buffered stripe.
func (w *Writer) flushStripe() error {
	if w.rowsIn == 0 {
		return nil
	}
	sm := stripeMeta{offset: w.offset, rows: int64(w.rowsIn)}
	var rel uint64
	for i, cb := range w.cols {
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
		sm.stats = append(sm.stats, cb.stats)
		w.fileStats[i].Merge(cb.stats)
		cb.reset()
	}
	sm.length = rel
	w.offset += rel
	w.stripes = append(w.stripes, sm)
	w.rowsIn = 0
	return nil
}

// encodeStream builds the uncompressed column stream.
func (cb *columnBuilder) encodeStream() []byte {
	presence := cb.presence.Finish()
	out := binary.AppendUvarint(nil, uint64(len(presence)))
	out = append(out, presence...)
	switch cb.kind {
	case datum.KindInt:
		out = append(out, cb.ints.Finish()...)
	case datum.KindFloat:
		out = append(out, cb.floats.Finish()...)
	case datum.KindBool:
		out = append(out, cb.bools.Finish()...)
	case datum.KindString:
		out = appendStringSection(out, cb.strs)
	}
	return out
}

// appendStringSection chooses dictionary or direct encoding.
func appendStringSection(out []byte, strs []string) []byte {
	distinct := map[string]int{}
	for _, s := range strs {
		distinct[s] = 0
	}
	useDict := len(strs) > 0 && float64(len(distinct)) <= dictionaryThreshold*float64(len(strs))
	if !useDict {
		out = append(out, 0x00) // direct
		var lens intEncoder
		for _, s := range strs {
			lens.Append(int64(len(s)))
		}
		enc := lens.Finish()
		out = binary.AppendUvarint(out, uint64(len(enc)))
		out = append(out, enc...)
		for _, s := range strs {
			out = append(out, s...)
		}
		return out
	}
	// Dictionary: sorted for deterministic output and future range
	// optimizations.
	dict := make([]string, 0, len(distinct))
	for s := range distinct {
		dict = append(dict, s)
	}
	sort.Strings(dict)
	for i, s := range dict {
		distinct[s] = i
	}
	out = append(out, 0x01)
	out = binary.AppendUvarint(out, uint64(len(dict)))
	for _, s := range dict {
		out = appendBytesVal(out, s)
	}
	var idx intEncoder
	for _, s := range strs {
		idx.Append(int64(distinct[s]))
	}
	enc := idx.Finish()
	out = binary.AppendUvarint(out, uint64(len(enc)))
	return append(out, enc...)
}

func (cb *columnBuilder) reset() {
	cb.presence.Reset()
	cb.ints.Reset()
	cb.floats.Reset()
	cb.bools.Reset()
	cb.strs = cb.strs[:0]
	cb.stats = ColumnStats{}
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

// Close flushes the final stripe and writes the footer and tail.
func (w *Writer) Close() error {
	if w.closed {
		return fmt.Errorf("orcfile: writer already closed")
	}
	if err := w.flushStripe(); err != nil {
		return err
	}
	w.closed = true

	footer := w.encodeFooter()
	footer, err := w.maybeCompress(footer)
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
	if w.z != nil {
		deflaters.Put(w.z)
		w.z = nil
	}
	return err
}

// encodeFooter serializes schema, user metadata, stripe directory and
// file statistics.
func (w *Writer) encodeFooter() []byte {
	out := binary.AppendUvarint(nil, uint64(len(w.schema)))
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
