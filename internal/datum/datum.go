// Package datum defines the typed scalar value model shared by every
// layer of the DualTable stack: the columnar file format, the key-value
// store cells, the MapReduce shuffle, and the SQL expression evaluator.
//
// A Datum is a small tagged union. It is deliberately a flat struct
// (not an interface) so rows can be manipulated without per-value heap
// allocation, which matters in scan-heavy benchmarks.
package datum

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the SQL types supported by the engine. They mirror
// the Hive types used in the paper's schemas: BIGINT, DOUBLE, STRING,
// BOOLEAN (dates are stored as STRING in Hive-0.11 fashion).
type Kind uint8

const (
	// KindNull is the type of SQL NULL. A null Datum compares ordered
	// before every non-null value, matching Hive's sort order.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer (Hive BIGINT/INT).
	KindInt
	// KindFloat is a 64-bit IEEE float (Hive DOUBLE).
	KindFloat
	// KindString is a UTF-8 string (Hive STRING).
	KindString
	// KindBool is a boolean (Hive BOOLEAN).
	KindBool
)

// String returns the SQL name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// KindFromSQL maps a SQL type name to a Kind. It accepts the common
// Hive aliases (INT, BIGINT, SMALLINT, TINYINT → KindInt; DOUBLE,
// FLOAT, DECIMAL → KindFloat; STRING, VARCHAR, CHAR, DATE, TIMESTAMP →
// KindString; BOOLEAN → KindBool).
func KindFromSQL(name string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "INT", "BIGINT", "SMALLINT", "TINYINT", "INTEGER":
		return KindInt, nil
	case "DOUBLE", "FLOAT", "DECIMAL", "REAL":
		return KindFloat, nil
	case "STRING", "VARCHAR", "CHAR", "TEXT", "DATE", "TIMESTAMP":
		return KindString, nil
	case "BOOLEAN", "BOOL":
		return KindBool, nil
	default:
		return KindNull, fmt.Errorf("datum: unknown SQL type %q", name)
	}
}

// Datum is one typed scalar value. The zero value is SQL NULL.
type Datum struct {
	K Kind
	I int64
	F float64
	S string
	B bool
}

// Null is the SQL NULL value.
var Null = Datum{K: KindNull}

// Int returns an integer datum.
func Int(v int64) Datum { return Datum{K: KindInt, I: v} }

// Float returns a floating-point datum.
func Float(v float64) Datum { return Datum{K: KindFloat, F: v} }

// String_ returns a string datum. The trailing underscore avoids a
// clash with the String method required by fmt.Stringer.
func String_(v string) Datum { return Datum{K: KindString, S: v} }

// Bool returns a boolean datum.
func Bool(v bool) Datum { return Datum{K: KindBool, B: v} }

// IsNull reports whether d is SQL NULL.
func (d Datum) IsNull() bool { return d.K == KindNull }

// String renders the datum the way Hive prints query output.
func (d Datum) String() string {
	switch d.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(d.I, 10)
	case KindFloat:
		return strconv.FormatFloat(d.F, 'g', -1, 64)
	case KindString:
		return d.S
	case KindBool:
		if d.B {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("<bad kind %d>", d.K)
	}
}

// SQLLiteral renders the datum as a SQL literal that lexes back to
// the same text: strings are quoted with their quotes and backslashes
// escaped, and a negative zero keeps its point (-0 would read back as
// the integer 0).
func (d Datum) SQLLiteral() string {
	switch {
	case d.K == KindString:
		return "'" + sqlQuoter.Replace(d.S) + "'"
	case d.K == KindFloat && d.F == 0 && math.Signbit(d.F):
		return "-0.0"
	}
	return d.String()
}

var sqlQuoter = strings.NewReplacer("'", "''", `\`, `\\`)

// AsFloat converts numeric datums to float64. Booleans convert to 0/1,
// strings are parsed when possible; NULL yields (0, false).
func (d Datum) AsFloat() (float64, bool) {
	switch d.K {
	case KindInt:
		return float64(d.I), true
	case KindFloat:
		return d.F, true
	case KindBool:
		if d.B {
			return 1, true
		}
		return 0, true
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(d.S), 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// AsInt converts numeric datums to int64 with float truncation.
func (d Datum) AsInt() (int64, bool) {
	switch d.K {
	case KindInt:
		return d.I, true
	case KindFloat:
		return int64(d.F), true
	case KindBool:
		if d.B {
			return 1, true
		}
		return 0, true
	case KindString:
		i, err := strconv.ParseInt(strings.TrimSpace(d.S), 10, 64)
		if err == nil {
			return i, true
		}
		f, ferr := strconv.ParseFloat(strings.TrimSpace(d.S), 64)
		return int64(f), ferr == nil
	default:
		return 0, false
	}
}

// Truthy reports whether the datum is a true boolean. Per SQL
// three-valued logic NULL is not true.
func (d Datum) Truthy() bool { return d.K == KindBool && d.B }

// Compare orders two datums: NULL < everything; numerics compare by
// value across int/float; strings and bools compare within kind.
// Cross-kind non-numeric comparisons order by kind tag, which gives a
// total order (needed for sorting shuffle keys deterministically).
func Compare(a, b Datum) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == KindNull && b.K == KindNull:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	an := a.K == KindInt || a.K == KindFloat
	bn := b.K == KindInt || b.K == KindFloat
	if an && bn {
		if a.K == KindInt && b.K == KindInt {
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			default:
				return 0
			}
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.K != b.K {
		if a.K < b.K {
			return -1
		}
		return 1
	}
	switch a.K {
	case KindString:
		return strings.Compare(a.S, b.S)
	case KindBool:
		switch {
		case a.B == b.B:
			return 0
		case !a.B:
			return -1
		default:
			return 1
		}
	}
	return 0
}

// Equal reports value equality under Compare semantics, except that
// NULL never equals NULL (SQL semantics are handled by the evaluator;
// Equal here is structural and does treat NULL==NULL as true so maps
// and tests can use it).
func Equal(a, b Datum) bool { return Compare(a, b) == 0 }

// Hash returns a 64-bit hash of the datum, consistent with Compare
// equality for same-kind values and for int/float values that compare
// equal (both hash through the float64 bit pattern).
func (d Datum) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	switch d.K {
	case KindNull:
		mix(0)
	case KindInt, KindFloat:
		f, _ := d.AsFloat()
		// Normalize -0.0 to 0.0 so equal values hash equal.
		if f == 0 {
			f = 0
		}
		bits := math.Float64bits(f)
		mix(1)
		for i := 0; i < 8; i++ {
			mix(byte(bits >> (8 * i)))
		}
	case KindString:
		mix(2)
		for i := 0; i < len(d.S); i++ {
			mix(d.S[i])
		}
	case KindBool:
		mix(3)
		if d.B {
			mix(1)
		} else {
			mix(0)
		}
	}
	return h
}

// Coerce converts d to the target kind, applying SQL-style implicit
// casts. NULL coerces to NULL of any kind. Returns an error when the
// conversion is not possible (e.g. non-numeric string to BIGINT).
func Coerce(d Datum, to Kind) (Datum, error) {
	if d.K == KindNull || d.K == to {
		return d, nil
	}
	switch to {
	case KindInt:
		if v, ok := d.AsInt(); ok {
			return Int(v), nil
		}
	case KindFloat:
		if v, ok := d.AsFloat(); ok {
			return Float(v), nil
		}
	case KindString:
		return String_(d.String()), nil
	case KindBool:
		switch d.K {
		case KindInt:
			return Bool(d.I != 0), nil
		case KindFloat:
			return Bool(d.F != 0), nil
		case KindString:
			switch strings.ToLower(d.S) {
			case "true", "1":
				return Bool(true), nil
			case "false", "0":
				return Bool(false), nil
			}
		}
	}
	return Null, fmt.Errorf("datum: cannot coerce %s %q to %s", d.K, d.String(), to)
}

// Parse parses the textual form s into a datum of kind k. Empty
// strings and the literal \N parse as NULL (Hive text convention).
func Parse(s string, k Kind) (Datum, error) {
	if s == "" || s == `\N` {
		return Null, nil
	}
	switch k {
	case KindInt:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null, fmt.Errorf("datum: parse %q as BIGINT: %w", s, err)
		}
		return Int(v), nil
	case KindFloat:
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null, fmt.Errorf("datum: parse %q as DOUBLE: %w", s, err)
		}
		return Float(v), nil
	case KindString:
		return String_(s), nil
	case KindBool:
		switch strings.ToLower(s) {
		case "true", "1":
			return Bool(true), nil
		case "false", "0":
			return Bool(false), nil
		}
		return Null, fmt.Errorf("datum: parse %q as BOOLEAN", s)
	default:
		return Null, fmt.Errorf("datum: parse into kind %v", k)
	}
}
