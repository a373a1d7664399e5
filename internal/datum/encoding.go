package datum

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding for datums and rows. The format is self-describing
// (a kind tag precedes each value) and uses varints so small integers
// stay small. It is used for key-value store cells, WAL records, and
// the MapReduce shuffle.
//
//	NULL   -> 0x00
//	INT    -> 0x01 zigzag-varint
//	FLOAT  -> 0x02 8-byte little-endian IEEE bits
//	STRING -> 0x03 uvarint(len) bytes
//	BOOL   -> 0x04 0x00|0x01

// AppendDatum appends the binary encoding of d to dst.
func AppendDatum(dst []byte, d Datum) []byte {
	switch d.K {
	case KindNull:
		return append(dst, 0x00)
	case KindInt:
		dst = append(dst, 0x01)
		return binary.AppendVarint(dst, d.I)
	case KindFloat:
		dst = append(dst, 0x02)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.F))
	case KindString:
		dst = append(dst, 0x03)
		dst = binary.AppendUvarint(dst, uint64(len(d.S)))
		return append(dst, d.S...)
	case KindBool:
		dst = append(dst, 0x04)
		if d.B {
			return append(dst, 1)
		}
		return append(dst, 0)
	default:
		panic(fmt.Sprintf("datum: encode unknown kind %d", d.K))
	}
}

// DecodeDatum decodes one datum from b, returning the datum and the
// number of bytes consumed.
func DecodeDatum(b []byte) (Datum, int, error) {
	if len(b) == 0 {
		return Null, 0, fmt.Errorf("datum: decode empty buffer")
	}
	switch b[0] {
	case 0x00:
		return Null, 1, nil
	case 0x01:
		v, n := binary.Varint(b[1:])
		if n <= 0 {
			return Null, 0, fmt.Errorf("datum: bad varint")
		}
		return Int(v), 1 + n, nil
	case 0x02:
		if len(b) < 9 {
			return Null, 0, fmt.Errorf("datum: short float")
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(b[1:9]))), 9, nil
	case 0x03:
		l, n := binary.Uvarint(b[1:])
		if n <= 0 {
			return Null, 0, fmt.Errorf("datum: bad string length")
		}
		start := 1 + n
		end := start + int(l)
		if end > len(b) || end < start {
			return Null, 0, fmt.Errorf("datum: short string (want %d bytes)", l)
		}
		return String_(string(b[start:end])), end, nil
	case 0x04:
		if len(b) < 2 {
			return Null, 0, fmt.Errorf("datum: short bool")
		}
		return Bool(b[1] != 0), 2, nil
	default:
		return Null, 0, fmt.Errorf("datum: unknown kind tag 0x%02x", b[0])
	}
}

// AppendRow appends the binary encoding of r (arity-prefixed) to dst.
func AppendRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, d := range r {
		dst = AppendDatum(dst, d)
	}
	return dst
}

// DecodeRow decodes one row from b, returning the row and bytes
// consumed.
func DecodeRow(b []byte) (Row, int, error) {
	arity, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, fmt.Errorf("datum: bad row arity")
	}
	off := n
	if arity > uint64(len(b)-off) { // each datum costs ≥ 1 byte
		return nil, 0, fmt.Errorf("datum: row arity %d exceeds buffer", arity)
	}
	row := make(Row, 0, arity)
	for i := uint64(0); i < arity; i++ {
		d, dn, err := DecodeDatum(b[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("datum: row column %d: %w", i, err)
		}
		row = append(row, d)
		off += dn
	}
	return row, off, nil
}

// EncodeRow is AppendRow into a fresh buffer.
func EncodeRow(r Row) []byte { return AppendRow(nil, r) }

// EncodedSize returns the number of bytes AppendDatum would emit. Used
// by the cost model to estimate payload sizes without encoding.
func EncodedSize(d Datum) int {
	switch d.K {
	case KindNull:
		return 1
	case KindInt:
		return 1 + varintLen(d.I)
	case KindFloat:
		return 9
	case KindString:
		return 1 + uvarintLen(uint64(len(d.S))) + len(d.S)
	case KindBool:
		return 2
	default:
		return 1
	}
}

// RowEncodedSize returns the byte size of the encoded row.
func RowEncodedSize(r Row) int {
	n := uvarintLen(uint64(len(r)))
	for _, d := range r {
		n += EncodedSize(d)
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func varintLen(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return uvarintLen(uv)
}

// SortableKey appends an order-preserving binary encoding of d: the
// byte comparison of two encoded keys matches Compare of the datums
// (for same-kind or numeric values). Used for shuffle sort keys.
//
//	NULL   -> 0x00
//	number -> 0x01 8-byte big-endian of float bits with sign flip
//	STRING -> 0x02 escaped bytes terminated by 0x00 0x01
//	BOOL   -> 0x03 0x00|0x01
func SortableKey(dst []byte, d Datum) []byte {
	switch d.K {
	case KindNull:
		return append(dst, 0x00)
	case KindInt:
		return sortableNumber(dst, float64(d.I))
	case KindFloat:
		return sortableNumber(dst, d.F)
	case KindString:
		return sortableString(dst, d.S)
	case KindBool:
		return sortableBool(dst, d.B)
	default:
		return append(dst, 0xFF)
	}
}

// SortableKey appends the SortableKey encoding of row i straight from
// the typed slice — SortableKey(dst, v.Datum(i)) without boxing the
// value (TestVectorSortableKeyMatchesDatum).
func (v *ColumnVector) SortableKey(dst []byte, i int) []byte {
	if v.Nulls[i] {
		return append(dst, 0x00)
	}
	switch v.Kind {
	case KindInt:
		return sortableNumber(dst, float64(v.Ints[i]))
	case KindFloat:
		return sortableNumber(dst, v.Floats[i])
	case KindString:
		return sortableString(dst, v.Strs[i])
	case KindBool:
		return sortableBool(dst, v.Bools[i])
	default:
		return SortableKey(dst, v.Datum(i))
	}
}

// sortableNumber encodes a number (an integer by its float64 value).
func sortableNumber(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	// Flip so that byte order matches numeric order: positive
	// numbers get the sign bit set, negatives are inverted.
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	dst = append(dst, 0x01)
	return binary.BigEndian.AppendUint64(dst, bits)
}

// sortableString escapes each 0x00 byte as 0x00 0xFF and terminates
// with 0x00 0x01, so a prefix orders before its extensions.
func sortableString(dst []byte, s string) []byte {
	dst = append(dst, 0x02)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x01)
}

func sortableBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 0x03, 0x01)
	}
	return append(dst, 0x03, 0x00)
}

// SortableRowKey appends the order-preserving encoding of each datum
// of r, producing a composite key whose byte order matches
// CompareRows for numeric/same-kind columns.
func SortableRowKey(dst []byte, r Row) []byte {
	for _, d := range r {
		dst = SortableKey(dst, d)
	}
	return dst
}
