package datum

// Batch is a run of result rows held column-major: Cols[j] is column j
// of all Len rows. It is the unit a streamed result travels in, from
// the scan's sink to the wire and out of it again. Whoever holds a Batch
// owns its storage: no vector of a Batch aliases a reader's, and a
// holder done with one may reset and refill it.
type Batch struct {
	Len  int
	Cols []ColumnVector
}

// Reset shapes b to n rows of width columns, every value NULL and no
// column typed yet, reusing the vectors b has held before.
func (b *Batch) Reset(width, n int) {
	b.Shape(width, n)
	for j := range b.Cols {
		b.Cols[j].Reset(KindNull, n)
	}
}

// Shape sizes b to n rows of width columns and leaves the vectors as
// they were, for a caller that resets every column itself.
func (b *Batch) Shape(width, n int) {
	if cap(b.Cols) < width {
		b.Cols = append(b.Cols[:cap(b.Cols)], make([]ColumnVector, width-cap(b.Cols))...)
	}
	b.Len, b.Cols = n, b.Cols[:width]
}

// SetRows makes b the transposition of rows, all of the given width. A
// column takes the kind of its values, and becomes a mixed column where
// they do not share one.
func (b *Batch) SetRows(rows []Row, width int) {
	b.Reset(width, len(rows))
	for j := range b.Cols {
		v := &b.Cols[j]
		for i, r := range rows {
			v.Put(i, r[j])
		}
	}
}

// RowInto writes row i into buf, reusing its backing when wide enough.
func (b *Batch) RowInto(buf Row, i int) Row {
	if cap(buf) < len(b.Cols) {
		buf = make(Row, len(b.Cols))
	}
	buf = buf[:len(b.Cols)]
	for j := range b.Cols {
		b.Cols[j].load(&buf[j], i)
	}
	return buf
}

// Row returns row i as a row of its own, the caller's to keep.
func (b *Batch) Row(i int) Row { return b.RowInto(nil, i) }

// AppendRows cuts the batch into rows the caller may keep — one slab of
// datums for the batch, each row a slice of it — and appends them to
// dst.
func (b *Batch) AppendRows(dst []Row) []Row {
	w := len(b.Cols)
	slab := make([]Datum, b.Len*w)
	for i := 0; i < b.Len; i++ {
		dst = append(dst, b.RowInto(slab[i*w:i*w:(i+1)*w], i))
	}
	return dst
}

// Truncate drops every row from n on.
func (b *Batch) Truncate(n int) {
	b.Len = n
	for j := range b.Cols {
		b.Cols[j].Truncate(n)
	}
}

// Append adds rows [from, to) of src, a batch of b's width, at the end
// of b.
func (b *Batch) Append(src *Batch, from, to int) {
	b.Len += to - from
	for j := range b.Cols {
		b.Cols[j].Append(&src.Cols[j], from, to)
	}
}
