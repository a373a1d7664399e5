// Package kvstore implements an HBase-like, log-structured key-value
// store: a write-ahead log on the distributed file system, an
// in-memory memtable (skiplist), immutable sorted store files with
// block indexes and bloom filters, multi-version cells with
// timestamps, delete tombstones, and minor/major compaction. A table is
// one such store: HBase's range-partitioned regions are left out, since
// an attached table never needs more than one.
//
// It is the substrate for DualTable's Attached Tables (paper §III-B):
// record-level consistency, efficient random writes and reads, sorted
// row keys (so UNION READ can merge-join against the master table),
// and HBase's multi-version semantics that the paper notes can track
// data change history.
package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// CellType distinguishes puts from tombstones. The order of the
// constants is the sort order within one (row, column, timestamp)
// slot: tombstones sort before puts so readers see them first.
type CellType uint8

const (
	// TypeDeleteRow marks every column of the row deleted at and
	// before the cell timestamp.
	TypeDeleteRow CellType = iota
	// TypeDeleteColumn marks all versions of one column deleted at and
	// before the cell timestamp.
	TypeDeleteColumn
	// TypePut is a regular value write.
	TypePut
)

// String names the cell type.
func (t CellType) String() string {
	switch t {
	case TypePut:
		return "Put"
	case TypeDeleteColumn:
		return "DeleteColumn"
	case TypeDeleteRow:
		return "DeleteRow"
	default:
		return fmt.Sprintf("CellType(%d)", uint8(t))
	}
}

// Cell is one versioned key-value entry, the unit of storage —
// equivalent to an HBase KeyValue.
type Cell struct {
	Row       []byte
	Family    string
	Qualifier []byte
	Ts        uint64
	Type      CellType
	Value     []byte
}

// CompareCells orders cells the way HBase does: by row ascending,
// family, qualifier, timestamp *descending* (newest first), then type
// (tombstones before puts).
func CompareCells(a, b *Cell) int {
	if c := bytes.Compare(a.Row, b.Row); c != 0 {
		return c
	}
	// Row tombstones sort before any column of the row (they have no
	// family/qualifier and must be seen first).
	at, bt := a.Type == TypeDeleteRow, b.Type == TypeDeleteRow
	if at != bt {
		if at {
			return -1
		}
		return 1
	}
	if at && bt {
		// Two row tombstones: newest first.
		return compareTsType(a, b)
	}
	if c := compareStrings(a.Family, b.Family); c != 0 {
		return c
	}
	if c := bytes.Compare(a.Qualifier, b.Qualifier); c != 0 {
		return c
	}
	return compareTsType(a, b)
}

func compareTsType(a, b *Cell) int {
	switch {
	case a.Ts > b.Ts:
		return -1
	case a.Ts < b.Ts:
		return 1
	}
	switch {
	case a.Type < b.Type:
		return -1
	case a.Type > b.Type:
		return 1
	default:
		return 0
	}
}

func compareStrings(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Size returns the approximate heap size of the cell, used for
// memtable flush accounting.
func (c *Cell) Size() int {
	return len(c.Row) + len(c.Family) + len(c.Qualifier) + len(c.Value) + 16
}

// Clone deep-copies the cell so callers may reuse their buffers.
func (c *Cell) Clone() Cell {
	return Cell{
		Row:       append([]byte(nil), c.Row...),
		Family:    c.Family,
		Qualifier: append([]byte(nil), c.Qualifier...),
		Ts:        c.Ts,
		Type:      c.Type,
		Value:     append([]byte(nil), c.Value...),
	}
}

// setKey makes c's key (everything CompareCells reads) a copy of src's
// in c's own buffers: what an iterator remembers of the cell it last
// saw, without an allocation per cell.
func (c *Cell) setKey(src *Cell) {
	c.Row = append(c.Row[:0], src.Row...)
	c.Family = src.Family
	c.Qualifier = append(c.Qualifier[:0], src.Qualifier...)
	c.Ts, c.Type = src.Ts, src.Type
}

// String renders the cell for debugging.
func (c *Cell) String() string {
	return fmt.Sprintf("%q/%s:%q/%d/%s=%q", c.Row, c.Family, c.Qualifier, c.Ts, c.Type, c.Value)
}

// appendCell serializes a cell:
//
//	uvarint(rowLen) row uvarint(famLen) fam uvarint(qualLen) qual
//	uvarint(ts) type uvarint(valLen) val
func appendCell(dst []byte, c *Cell) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(c.Row)))
	dst = append(dst, c.Row...)
	dst = binary.AppendUvarint(dst, uint64(len(c.Family)))
	dst = append(dst, c.Family...)
	dst = binary.AppendUvarint(dst, uint64(len(c.Qualifier)))
	dst = append(dst, c.Qualifier...)
	dst = binary.AppendUvarint(dst, c.Ts)
	dst = append(dst, byte(c.Type))
	dst = binary.AppendUvarint(dst, uint64(len(c.Value)))
	dst = append(dst, c.Value...)
	return dst
}

// decodeCell parses one cell from b, returning bytes consumed. The
// cell's byte slices alias b. fam is the family of the cell decoded
// before, if any: a cell of that family shares its string.
func decodeCell(b []byte, fam string) (Cell, int, error) {
	var c Cell
	off := 0
	readBytes := func() ([]byte, error) {
		l, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return nil, fmt.Errorf("kvstore: bad length varint at %d", off)
		}
		off += n
		end := off + int(l)
		if end > len(b) || end < off {
			return nil, fmt.Errorf("kvstore: truncated field (want %d bytes at %d)", l, off)
		}
		out := b[off:end]
		off = end
		return out, nil
	}
	row, err := readBytes()
	if err != nil {
		return c, 0, err
	}
	famBytes, err := readBytes()
	if err != nil {
		return c, 0, err
	}
	qual, err := readBytes()
	if err != nil {
		return c, 0, err
	}
	ts, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return c, 0, fmt.Errorf("kvstore: bad timestamp")
	}
	off += n
	if off >= len(b) {
		return c, 0, fmt.Errorf("kvstore: truncated type byte")
	}
	typ := CellType(b[off])
	off++
	val, err := readBytes()
	if err != nil {
		return c, 0, err
	}
	family := fam
	if string(famBytes) != fam {
		family = string(famBytes)
	}
	c = Cell{Row: row, Family: family, Qualifier: qual, Ts: ts, Type: typ, Value: val}
	return c, off, nil
}

// seekProbe returns a synthetic cell that sorts before every real
// cell of the given row (max timestamp, row-tombstone type), for
// iterator seeks.
func seekProbe(row []byte) *Cell {
	return &Cell{Row: row, Ts: ^uint64(0), Type: TypeDeleteRow}
}

// CellIterator yields cells in CompareCells order.
type CellIterator interface {
	// Next advances and returns the next cell, or false at the end.
	Next() (*Cell, bool)
	// Close releases resources.
	Close() error
}
