package orcfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"dualtable/internal/datum"
)

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// ColumnStats summarizes one column within a stripe (or the whole
// file): value count, null count, typed min/max, and numeric sum.
// Stripe statistics drive predicate pushdown: a stripe whose stats
// prove no row can match is skipped without decompression.
type ColumnStats struct {
	Count     int64 // non-null values
	NullCount int64
	HasMinMax bool
	Min       datum.Datum
	Max       datum.Datum
	Sum       float64 // meaningful for numeric columns
}

// Update folds one value into the stats.
func (s *ColumnStats) Update(d datum.Datum) {
	if d.IsNull() {
		s.NullCount++
		return
	}
	s.Count++
	if !s.HasMinMax {
		s.Min, s.Max, s.HasMinMax = d, d, true
	} else {
		if datum.Compare(d, s.Min) < 0 {
			s.Min = d
		}
		if datum.Compare(d, s.Max) > 0 {
			s.Max = d
		}
	}
	// A string adds to Sum when it reads as a number (footers carry the
	// value, so it stays). Most do not, and strconv allocates an error
	// for each of those: skip the parse where it cannot succeed.
	if d.K == datum.KindString && !numberLike(d.S) {
		return
	}
	if f, ok := d.AsFloat(); ok {
		s.Sum += f
	}
}

// numberLike reports false only for strings strconv.ParseFloat rejects
// once trimmed: empty ones, ones that do not start like a number, hold a
// byte no float spelling has (decimal, hex, inf, nan), or carry a sign
// anywhere but in front or behind an exponent marker — dates, words.
func numberLike(s string) bool {
	s = strings.TrimSpace(s)
	if s == "" || !strings.ContainsRune("0123456789+-.iInN", rune(s[0])) {
		return false
	}
	for i := 1; i < len(s); i++ {
		switch c := s[i] | 0x20; {
		case s[i] >= '0' && s[i] <= '9', s[i] == '.', s[i] == '_':
		case c >= 'a' && c <= 'f', c == 'x', c == 'p', c == 'i', c == 'n', c == 't', c == 'y':
		case s[i] == '+' || s[i] == '-':
			if p := s[i-1] | 0x20; p != 'e' && p != 'p' {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Merge folds another stats object (e.g. stripe stats into file
// stats).
func (s *ColumnStats) Merge(o ColumnStats) {
	s.Count += o.Count
	s.NullCount += o.NullCount
	s.Sum += o.Sum
	if o.HasMinMax {
		if !s.HasMinMax {
			s.Min, s.Max, s.HasMinMax = o.Min, o.Max, true
		} else {
			if datum.Compare(o.Min, s.Min) < 0 {
				s.Min = o.Min
			}
			if datum.Compare(o.Max, s.Max) > 0 {
				s.Max = o.Max
			}
		}
	}
}

func (s *ColumnStats) marshal(dst []byte) []byte {
	dst = binary.AppendVarint(dst, s.Count)
	dst = binary.AppendVarint(dst, s.NullCount)
	if s.HasMinMax {
		dst = append(dst, 1)
		dst = datum.AppendDatum(dst, s.Min)
		dst = datum.AppendDatum(dst, s.Max)
	} else {
		dst = append(dst, 0)
	}
	return binary.LittleEndian.AppendUint64(dst, floatBits(s.Sum))
}

func unmarshalStats(buf []byte, off int) (ColumnStats, int, error) {
	var s ColumnStats
	v, c := binary.Varint(buf[off:])
	if c <= 0 {
		return s, 0, fmt.Errorf("orcfile: bad stats count")
	}
	s.Count = v
	off += c
	v, c = binary.Varint(buf[off:])
	if c <= 0 {
		return s, 0, fmt.Errorf("orcfile: bad stats null count")
	}
	s.NullCount = v
	off += c
	if off >= len(buf) {
		return s, 0, fmt.Errorf("orcfile: truncated stats")
	}
	has := buf[off]
	off++
	if has == 1 {
		d, n, err := datum.DecodeDatum(buf[off:])
		if err != nil {
			return s, 0, err
		}
		s.Min = d
		off += n
		d, n, err = datum.DecodeDatum(buf[off:])
		if err != nil {
			return s, 0, err
		}
		s.Max = d
		off += n
		s.HasMinMax = true
	}
	if off+8 > len(buf) {
		return s, 0, fmt.Errorf("orcfile: truncated stats sum")
	}
	s.Sum = floatFromBits(binary.LittleEndian.Uint64(buf[off:]))
	off += 8
	return s, off, nil
}

// CmpOp is a comparison operator in a search argument.
type CmpOp uint8

// Comparison operators usable in search arguments.
const (
	OpEQ CmpOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

// String names the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Predicate is one conjunct of a search argument: column <op> value.
type Predicate struct {
	Column int
	Op     CmpOp
	Value  datum.Datum
}

// SearchArg is a conjunction of predicates used for stripe pruning
// (the ORC "SArg" mechanism). An empty SearchArg matches everything.
type SearchArg struct {
	Predicates []Predicate
}

// MaybeMatches reports whether a stripe with the given per-column
// stats could contain a matching row. It must never return false for
// a stripe that has a match (no false pruning); returning true for a
// non-matching stripe merely costs a read.
func (sa *SearchArg) MaybeMatches(stats []ColumnStats) bool {
	if sa == nil {
		return true
	}
	for _, p := range sa.Predicates {
		if p.Column < 0 || p.Column >= len(stats) {
			continue
		}
		st := stats[p.Column]
		if !st.HasMinMax {
			// All-null (or empty) column: no non-null value can match
			// a comparison, but nulls are filtered by the engine, so
			// if the column has only nulls the conjunct can't be true.
			if st.Count == 0 && st.NullCount > 0 {
				return false
			}
			continue
		}
		switch p.Op {
		case OpEQ:
			if datum.Compare(p.Value, st.Min) < 0 || datum.Compare(p.Value, st.Max) > 0 {
				return false
			}
		case OpLT:
			if datum.Compare(st.Min, p.Value) >= 0 {
				return false
			}
		case OpLE:
			if datum.Compare(st.Min, p.Value) > 0 {
				return false
			}
		case OpGT:
			if datum.Compare(st.Max, p.Value) <= 0 {
				return false
			}
		case OpGE:
			if datum.Compare(st.Max, p.Value) < 0 {
				return false
			}
		case OpNE:
			// Prunable only when every value equals p.Value.
			if st.HasMinMax && datum.Compare(st.Min, st.Max) == 0 &&
				datum.Compare(st.Min, p.Value) == 0 && st.NullCount == 0 {
				return false
			}
		}
	}
	return true
}
