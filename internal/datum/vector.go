package datum

import "slices"

// ColumnVector holds a batch of decoded values of one column in typed
// slices — the columnar counterpart of a Row position. Storage is
// positional: every slice the active kind uses has one slot per batch
// row (including NULL rows, whose value slot is the zero value), so
// vector index i always addresses batch row i without rank queries.
//
// Vectors are reused between batches: Reset re-slices the backing
// arrays in place, so a steady-state scan performs no per-batch
// allocation once the slices have grown to the batch size.
type ColumnVector struct {
	Kind Kind
	// Nulls flags NULL rows (true = NULL). Always length Len.
	Nulls []bool
	// Exactly one of the value slices is active, selected by Kind.
	Ints   []int64
	Floats []float64
	Bools  []bool
	Strs   []string
	// Datums is the storage of a mixed column: a column whose values in
	// one batch do not share a kind (a CASE with branches of two kinds, a
	// COALESCE across kinds, an attached value its file column's kind
	// cannot hold). Such a vector has Kind KindNull — no typed slice is
	// active — and every row not flagged in Nulls lives whole in
	// Datums[i]. File decoding never produces one; Put does, from the
	// data. Empty on every other vector, the all-NULL KindNull vector of
	// an unprojected column included.
	Datums []Datum
}

// Reset prepares the vector to hold n rows of the given kind, reusing
// backing arrays. All rows start NULL with zero value slots.
func (v *ColumnVector) Reset(kind Kind, n int) {
	v.Shape(kind, n)
	resetBools(v.Nulls)
	switch kind {
	case KindInt:
		clear(v.Ints)
	case KindFloat:
		clear(v.Floats)
	case KindBool:
		clear(v.Bools)
	case KindString:
		clear(v.Strs)
	}
}

// Shape sizes the vector to n rows of the given kind as Reset does, but
// writes no row: the NULL flags and the kind's value slots hold what the
// reused arrays held, for a decoder that writes every one itself.
func (v *ColumnVector) Shape(kind Kind, n int) {
	v.Kind = kind
	v.Nulls = sized(v.Nulls, n)
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Bools = v.Bools[:0]
	v.Strs = v.Strs[:0]
	v.Datums = v.Datums[:0]
	switch kind {
	case KindInt:
		v.Ints = sized(v.Ints, n)
	case KindFloat:
		v.Floats = sized(v.Floats, n)
	case KindBool:
		v.Bools = sized(v.Bools, n)
	case KindString:
		v.Strs = sized(v.Strs, n)
	}
}

// sized returns s resliced to n values, or a new slice when it cannot
// hold them.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed returns s resized to n zero values.
func zeroed[T any](s []T, n int) []T {
	s = sized(s, n)
	clear(s)
	return s
}

// resetBools sets every flag of s: one set byte doubled by copy, so the
// fill runs at memory speed instead of a byte per iteration.
func resetBools(s []bool) {
	if len(s) > 0 {
		s[0] = true
		for k := 1; k < len(s); k *= 2 {
			copy(s[k:], s[:k])
		}
	}
}

// Fill resets the vector to n rows all holding d — the broadcast
// builder for a literal operand. A NULL d leaves every row NULL.
func (v *ColumnVector) Fill(d Datum, n int) {
	v.Reset(d.K, n)
	if d.IsNull() {
		return
	}
	for i := range v.Nulls {
		v.Nulls[i] = false
	}
	switch d.K {
	case KindInt:
		for i := range v.Ints {
			v.Ints[i] = d.I
		}
	case KindFloat:
		for i := range v.Floats {
			v.Floats[i] = d.F
		}
	case KindBool:
		for i := range v.Bools {
			v.Bools[i] = d.B
		}
	case KindString:
		for i := range v.Strs {
			v.Strs[i] = d.S
		}
	}
}

// Len returns the number of rows in the vector.
func (v *ColumnVector) Len() int { return len(v.Nulls) }

// Datum returns row i as a Datum. load repeats its switch for speed;
// a change to one is made to both (TestLoadMatchesDatum).
func (v *ColumnVector) Datum(i int) Datum {
	if v.Nulls[i] {
		return Null
	}
	switch v.Kind {
	case KindInt:
		return Datum{K: KindInt, I: v.Ints[i]}
	case KindFloat:
		return Datum{K: KindFloat, F: v.Floats[i]}
	case KindBool:
		return Datum{K: KindBool, B: v.Bools[i]}
	case KindString:
		return Datum{K: KindString, S: v.Strs[i]}
	case KindNull:
		return v.Datums[i] // a mixed column: only it has a non-NULL row
	default:
		return Null
	}
}

// load stores row i into *d: Datum for a caller filling a row in
// place. Storing through the pointer skips the temporary that
// assigning Datum's result copies, which dominates a row fill. It is a
// copy of Datum's switch, kept separate because Datum calling load
// measures slower; TestLoadMatchesDatum holds the two together.
func (v *ColumnVector) load(d *Datum, i int) {
	if v.Nulls[i] {
		*d = Null
		return
	}
	switch v.Kind {
	case KindInt:
		*d = Datum{K: KindInt, I: v.Ints[i]}
	case KindFloat:
		*d = Datum{K: KindFloat, F: v.Floats[i]}
	case KindBool:
		*d = Datum{K: KindBool, B: v.Bools[i]}
	case KindString:
		*d = Datum{K: KindString, S: v.Strs[i]}
	case KindNull:
		*d = v.Datums[i]
	default:
		*d = Null
	}
}

// SetDatum overwrites row i with d. It accepts NULL, the vector's own
// kind, or — when the vector is all-NULL with no typed storage yet
// (an unprojected column receiving a scattered UNION READ merge) —
// any kind, adopted lazily. It returns false on a kind mismatch, which
// Put resolves by turning the column mixed.
func (v *ColumnVector) SetDatum(i int, d Datum) bool {
	if d.K == KindNull { // not d.IsNull(): its receiver copy of d stalls the hot path
		v.Nulls[i] = true
		return true
	}
	if v.Kind == KindNull {
		if len(v.Datums) > 0 { // a mixed column holds any kind
			v.Datums[i], v.Nulls[i] = d, false
			return true
		}
		// All-NULL vector (unprojected column): adopt the datum's kind
		// lazily, growing the matching value slice.
		v.Kind = d.K
		n := len(v.Nulls)
		switch d.K {
		case KindInt:
			v.Ints = zeroed(v.Ints, n)
		case KindFloat:
			v.Floats = zeroed(v.Floats, n)
		case KindBool:
			v.Bools = zeroed(v.Bools, n)
		case KindString:
			v.Strs = zeroed(v.Strs, n)
		}
	}
	if d.K != v.Kind {
		return false
	}
	v.Nulls[i] = false
	switch v.Kind {
	case KindInt:
		v.Ints[i] = d.I
	case KindFloat:
		v.Floats[i] = d.F
	case KindBool:
		v.Bools[i] = d.B
	case KindString:
		v.Strs[i] = d.S
	}
	return true
}

// Put is SetDatum for a column that must take every datum — a result
// column, a UNION READ merge, a row adapted to vectors: one whose kind
// the vector cannot hold turns it into a mixed column (see Datums), the
// rows set so far moving over.
func (v *ColumnVector) Put(i int, d Datum) {
	if v.SetDatum(i, d) {
		return
	}
	ds := slices.Grow(v.Datums[:0], len(v.Nulls))[:len(v.Nulls)]
	for k := range ds {
		ds[k] = v.Datum(k)
	}
	v.Kind, v.Datums = KindNull, ds
	v.Ints, v.Floats, v.Bools, v.Strs = v.Ints[:0], v.Floats[:0], v.Bools[:0], v.Strs[:0]
	v.Datums[i], v.Nulls[i] = d, false
}

// Gather resets v to the rows of src that sel lists — row indexes of
// src, increasing, so a sel as long as src selects all of it. The rows
// are copied: v shares no storage with src afterwards.
func (v *ColumnVector) Gather(src *ColumnVector, sel []int32) {
	if len(sel) == len(src.Nulls) {
		v.Kind = src.Kind
		v.Nulls = append(v.Nulls[:0], src.Nulls...)
		v.Ints = append(v.Ints[:0], src.Ints...)
		v.Floats = append(v.Floats[:0], src.Floats...)
		v.Bools = append(v.Bools[:0], src.Bools...)
		v.Strs = append(v.Strs[:0], src.Strs...)
		v.Datums = append(v.Datums[:0], src.Datums...)
		return
	}
	v.Reset(src.Kind, len(sel))
	for k, i := range sel {
		v.Nulls[k] = src.Nulls[i]
	}
	switch src.Kind {
	case KindInt:
		for k, i := range sel {
			v.Ints[k] = src.Ints[i]
		}
	case KindFloat:
		for k, i := range sel {
			v.Floats[k] = src.Floats[i]
		}
	case KindBool:
		for k, i := range sel {
			v.Bools[k] = src.Bools[i]
		}
	case KindString:
		for k, i := range sel {
			v.Strs[k] = src.Strs[i]
		}
	case KindNull:
		if len(src.Datums) > 0 { // a mixed column
			for _, i := range sel {
				v.Datums = append(v.Datums, src.Datums[i])
			}
		}
	}
}

// Truncate drops every row from n on.
func (v *ColumnVector) Truncate(n int) {
	v.Nulls = v.Nulls[:n]
	v.Ints = v.Ints[:min(n, len(v.Ints))]
	v.Floats = v.Floats[:min(n, len(v.Floats))]
	v.Bools = v.Bools[:min(n, len(v.Bools))]
	v.Strs = v.Strs[:min(n, len(v.Strs))]
	v.Datums = v.Datums[:min(n, len(v.Datums))]
}

// Append adds rows [from, to) of src at the end of v. Two vectors of
// one kind append in bulk, and an empty v takes src's kind; any other
// pairing goes through Put datum by datum, so a column whose batches
// disagree on kind ends up mixed.
func (v *ColumnVector) Append(src *ColumnVector, from, to int) {
	if len(v.Nulls) == 0 {
		v.Reset(src.Kind, 0)
	}
	if v.Kind == src.Kind && len(v.Datums) == 0 && len(src.Datums) == 0 {
		v.Nulls = append(v.Nulls, src.Nulls[from:to]...)
		switch v.Kind {
		case KindInt:
			v.Ints = append(v.Ints, src.Ints[from:to]...)
		case KindFloat:
			v.Floats = append(v.Floats, src.Floats[from:to]...)
		case KindBool:
			v.Bools = append(v.Bools, src.Bools[from:to]...)
		case KindString:
			v.Strs = append(v.Strs, src.Strs[from:to]...)
		}
		return
	}
	for i := from; i < to; i++ {
		n := len(v.Nulls)
		v.Extend(n + 1)
		v.Put(n, src.Datum(i))
	}
}

// Extend pads v with NULL rows up to n rows, in whichever storage is
// active; a vector already n rows long is left as it is.
func (v *ColumnVector) Extend(n int) {
	for len(v.Nulls) < n {
		v.Nulls = append(v.Nulls, true)
		switch {
		case v.Kind == KindInt:
			v.Ints = append(v.Ints, 0)
		case v.Kind == KindFloat:
			v.Floats = append(v.Floats, 0)
		case v.Kind == KindBool:
			v.Bools = append(v.Bools, false)
		case v.Kind == KindString:
			v.Strs = append(v.Strs, "")
		case len(v.Datums) > 0:
			v.Datums = append(v.Datums, Null)
		}
	}
}
