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

// stripeStats is one column's statistics for the stripe being written,
// kept typed: a value folds in without becoming a Datum or meeting
// datum.Compare, and flushStripe turns the state into a ColumnStats
// once. WriteRow and WriteBatch fold through the same add* helpers.
// Bounds replace only on a strict comparison, as Compare orders values:
// a NaN folded first stays, a later NaN displaces nothing, and of ±0 the
// first seen stays.
type stripeStats struct {
	count, nulls int64
	sum          float64
	minI, maxI   int64
	minF, maxF   float64
	minS, maxS   string
	minB, maxB   bool
	// The last string folded and what it added to sum, if anything.
	lastS  string
	lastF  float64
	lastOK bool
}

func (s *stripeStats) addInt(v int64) {
	if s.count == 0 || v < s.minI {
		s.minI = v
	}
	if s.count == 0 || v > s.maxI {
		s.maxI = v
	}
	s.count++
	s.sum = addSum(s.sum, float64(v))
}

func (s *stripeStats) addFloat(v float64) {
	if s.count == 0 || v < s.minF {
		s.minF = v
	}
	if s.count == 0 || v > s.maxF {
		s.maxF = v
	}
	s.count++
	s.sum = addSum(s.sum, v)
}

// addString adds to the sum only a string that reads as a number
// (footers carry the value, so it stays). Most do not, and strconv
// allocates an error for each of those: the parse is skipped where it
// cannot succeed. A string equal to the one before it cannot move the
// bounds, and adds what that one added.
func (s *stripeStats) addString(v string) {
	if s.count > 0 && v == s.lastS {
		s.count++
		if s.lastOK {
			s.sum = addSum(s.sum, s.lastF)
		}
		return
	}
	if s.count == 0 || v < s.minS {
		s.minS = v
	}
	if s.count == 0 || v > s.maxS {
		s.maxS = v
	}
	s.count++
	s.lastS, s.lastOK = v, false
	if numberLike(v) {
		s.lastF, s.lastOK = datum.String_(v).AsFloat()
		if s.lastOK {
			s.sum = addSum(s.sum, s.lastF)
		}
	}
}

func (s *stripeStats) addBool(v bool) {
	if s.count == 0 {
		s.minB, s.maxB = v, v
	}
	s.minB, s.maxB = s.minB && v, s.maxB || v
	s.count++
	var f float64
	if v {
		f = 1
	}
	s.sum = addSum(s.sum, f)
}

// columnStats returns the stripe's statistics for a column of kind.
func (s *stripeStats) columnStats(kind datum.Kind) ColumnStats {
	cs := ColumnStats{Count: s.count, NullCount: s.nulls, HasMinMax: s.count > 0, Sum: s.sum}
	if !cs.HasMinMax {
		return cs
	}
	switch kind {
	case datum.KindInt:
		cs.Min, cs.Max = datum.Int(s.minI), datum.Int(s.maxI)
	case datum.KindFloat:
		cs.Min, cs.Max = datum.Float(s.minF), datum.Float(s.maxF)
	case datum.KindString:
		cs.Min, cs.Max = datum.String_(s.minS), datum.String_(s.maxS)
	case datum.KindBool:
		cs.Min, cs.Max = datum.Bool(s.minB), datum.Bool(s.maxB)
	}
	return cs
}

// addSum is the one addition every statistics sum makes. Of two NaN
// operands an addition keeps one operand's payload, and which one the
// hardware keeps (amd64: the destination register's) is left to the
// compiler at each call site. The written sums have always kept the
// added value's, so a NaN v wins here explicitly — quieted, as the
// addition would — and the file bytes cannot depend on how a site
// compiled.
func addSum(sum, v float64) float64 {
	if v != v {
		return v + v
	}
	return sum + v
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
	// Of two NaN sums the running one keeps its payload, as files have
	// always been written: addSum keeps its second operand's.
	s.Sum = addSum(o.Sum, s.Sum)
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
