package wire

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"dualtable/internal/datum"
)

// The ROW_BATCH payload is column-major, the shape a streamed result
// has on both sides of the wire:
//
//	uvarint  op id
//	uvarint  row count n
//	uvarint  column count
//	per column:
//	  byte     kind: 1 INT, 2 FLOAT, 3 STRING, 4 BOOL (datum.Kind), 0 tagged
//	  bitmap   ceil(n/8) bytes, bit i%8 of byte i/8 set = row i is NULL;
//	           the unused high bits of the last byte are zero
//	  segment  the values of the rows that are not NULL, in row order:
//	    INT     zigzag varints
//	    FLOAT   8 bytes each, little-endian IEEE bits
//	    STRING  uvarint lengths, then the bytes of every value as one run
//	    BOOL    a bitmap of the values, ceil(count/8) bytes, zero-padded
//	    tagged  each value in datum.AppendDatum form (never its NULL)
//
// A tagged column is a mixed one (datum.ColumnVector.Datums): its
// values do not share a kind, which SQL allows a CASE or a COALESCE,
// and which only the data of a batch can tell. A column with no value
// at all (every row NULL, no kind known) travels tagged as well, as its
// bitmap and an empty segment.

// AppendRowBatch appends the ROW_BATCH payload carrying rows [from, to)
// of b to dst and returns the extended slice.
func AppendRowBatch(dst []byte, opID uint64, b *datum.Batch, from, to int) []byte {
	dst = binary.AppendUvarint(dst, opID)
	dst = binary.AppendUvarint(dst, uint64(to-from))
	dst = binary.AppendUvarint(dst, uint64(len(b.Cols)))
	for j := range b.Cols {
		dst = appendColumn(dst, &b.Cols[j], from, to)
	}
	return dst
}

func appendColumn(dst []byte, v *datum.ColumnVector, from, to int) []byte {
	nulls := v.Nulls[from:to]
	dst = append(dst, byte(v.Kind))
	dst = appendBits(dst, nulls, nil)
	switch v.Kind {
	case datum.KindInt:
		for i, x := range v.Ints[from:to] {
			if !nulls[i] {
				dst = binary.AppendVarint(dst, x)
			}
		}
	case datum.KindFloat:
		for i, x := range v.Floats[from:to] {
			if !nulls[i] {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
			}
		}
	case datum.KindString:
		strs := v.Strs[from:to]
		for i, s := range strs {
			if !nulls[i] {
				dst = binary.AppendUvarint(dst, uint64(len(s)))
			}
		}
		for i, s := range strs {
			if !nulls[i] {
				dst = append(dst, s...)
			}
		}
	case datum.KindBool:
		dst = appendBits(dst, v.Bools[from:to], nulls)
	default:
		for i, null := range nulls {
			if !null {
				dst = datum.AppendDatum(dst, v.Datums[from+i])
			}
		}
	}
	return dst
}

// appendBits packs vals into a bitmap, low bit first, leaving out the
// positions skip flags (nil skips none).
func appendBits(dst []byte, vals, skip []bool) []byte {
	var acc byte
	k := 0
	for i, b := range vals {
		if skip != nil && skip[i] {
			continue
		}
		if b {
			acc |= 1 << (k & 7)
		}
		if k++; k&7 == 0 {
			dst = append(dst, acc)
			acc = 0
		}
	}
	if k&7 != 0 {
		dst = append(dst, acc)
	}
	return dst
}

// DecodeRowBatch parses a ROW_BATCH payload into b, whose vectors it
// resizes and overwrites. Everything b holds afterwards is a copy:
// payload may be reused as soon as the call returns. A STRING column
// is copied once, as the one string its values are then substrings of.
//
// Nothing is sized from a count before the payload has been shown long
// enough to hold it: every column costs at least its kind byte and its
// null bitmap, so rows × columns is bounded by 8 × the payload length
// before any vector is touched, and a column's vector is sized only
// once its segment's minimum — one byte a varint, eight a float, two a
// tagged value — fits in what is left. A batch with rows but no columns
// is malformed.
func DecodeRowBatch(payload []byte, b *datum.Batch) (opID uint64, err error) {
	r := &reader{b: payload}
	opID = r.uvarint()
	n, width := r.uvarint(), r.uvarint()
	left := uint64(len(payload) - r.off)
	switch {
	case r.err != nil:
	case n > 0 && width == 0:
		r.fail("%d rows of no columns", n)
	case n > 8*left || width > left || width*(1+(n+7)/8) > left:
		r.fail("%d rows of %d columns exceed payload", n, width)
	}
	if r.err != nil {
		return 0, r.finish("ROW_BATCH")
	}
	b.Shape(int(width), int(n)) // column resets each vector it decodes
	for j := range b.Cols {
		r.column(&b.Cols[j], int(n))
	}
	return opID, r.finish("ROW_BATCH")
}

// column decodes one column of n rows into v.
func (r *reader) column(v *datum.ColumnVector, n int) {
	if r.err != nil {
		return
	}
	if r.off+1+(n+7)/8 > len(r.b) {
		r.fail("short column header at offset %d", r.off)
		return
	}
	kind := datum.Kind(r.b[r.off])
	bitmap := r.b[r.off+1 : r.off+1+(n+7)/8]
	r.off += 1 + len(bitmap)
	vals := n // rows with a value
	for _, x := range bitmap {
		vals -= bits.OnesCount8(x)
	}
	if n&7 != 0 && bitmap[len(bitmap)-1]>>(n&7) != 0 {
		r.fail("null bitmap has bits past row %d", n)
		return
	}
	var least int
	switch kind {
	case datum.KindInt, datum.KindString:
		least = vals
	case datum.KindFloat:
		least = 8 * vals
	case datum.KindBool:
		least = (vals + 7) / 8
	case datum.KindNull:
		least = 2 * vals
	default:
		r.fail("unknown column kind %d", kind)
		return
	}
	if least > len(r.b)-r.off {
		r.fail("%d values of kind %d exceed payload at offset %d", vals, kind, r.off)
		return
	}
	v.Reset(kind, n)
	null := func(i int) bool { return bitmap[i>>3]>>(i&7)&1 != 0 }
	switch kind {
	case datum.KindInt:
		for i := range v.Ints {
			if !null(i) {
				v.Ints[i], v.Nulls[i] = r.varint(), false
			}
		}
	case datum.KindFloat:
		for i := range v.Floats {
			if !null(i) {
				v.Floats[i], v.Nulls[i] = r.f64(), false
			}
		}
	case datum.KindString:
		lens := reader{b: r.b, off: r.off} // a second pass cuts the run
		total := uint64(0)
		for k := 0; k < vals; k++ {
			// Capped one by one, so that the sum cannot wrap.
			total += min(r.uvarint(), uint64(len(r.b))+1)
		}
		if r.err != nil || total > uint64(len(r.b)-r.off) {
			r.fail("string run of %d bytes ends outside the payload", total)
			return
		}
		run := string(r.b[r.off : r.off+int(total)])
		r.off += len(run)
		for i, at := 0, 0; i < n; i++ {
			if !null(i) {
				l := int(lens.uvarint())
				v.Strs[i], v.Nulls[i] = run[at:at+l], false
				at += l
			}
		}
	case datum.KindBool:
		packed := r.b[r.off : r.off+least]
		r.off += least
		if vals&7 != 0 && packed[least-1]>>(vals&7) != 0 {
			r.fail("bool bitmap has bits past value %d", vals)
			return
		}
		for i, k := 0, 0; i < n; i++ {
			if !null(i) {
				v.Bools[i], v.Nulls[i] = packed[k>>3]>>(k&7)&1 != 0, false
				k++
			}
		}
	case datum.KindNull:
		if vals == 0 {
			return
		}
		v.Datums = slices.Grow(v.Datums[:0], n)[:n]
		clear(v.Datums)
		for i := range v.Datums {
			if null(i) {
				continue
			}
			d, dn, err := datum.DecodeDatum(r.b[r.off:])
			if err != nil || d.IsNull() {
				r.fail("tagged value of row %d at offset %d is malformed", i, r.off)
				return
			}
			r.off += dn
			v.Datums[i], v.Nulls[i] = d, false
		}
	}
}

// Encode serializes the message payload.
func (m *RowBatch) Encode() []byte {
	var b datum.Batch
	width := 0
	if len(m.Rows) > 0 {
		width = len(m.Rows[0]) // a result's rows share their arity
	}
	b.SetRows(m.Rows, width)
	return AppendRowBatch(nil, m.OpID, &b, 0, b.Len)
}

// Decode parses the message payload.
func (m *RowBatch) Decode(p []byte) error {
	var b datum.Batch
	opID, err := DecodeRowBatch(p, &b)
	if err != nil {
		return err
	}
	m.OpID, m.Rows = opID, b.AppendRows(nil)
	return nil
}
