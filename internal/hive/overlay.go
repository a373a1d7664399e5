package hive

import (
	"cmp"
	"slices"

	"dualtable/internal/datum"
	"dualtable/internal/freelist"
)

// Overlay is one ORC file's delta as UNION READ merges it: the records
// it deletes and, for each column it modifies, a patch of typed values
// (the delta held column by column and by position, next to a
// read-optimised main). Records are addressed by row ordinal, the low
// half of a record ID whose high half is the split's FileID. A deleted
// record is in no patch; an ordinal at or past the file's end is never
// reached. An overlay is read-only once built, so the splits of
// concurrent scans may share it.
type Overlay struct {
	// Deleted lists the deleted records' ordinals, ascending.
	Deleted []uint32
	// Patches holds one patch per modified column, by ascending column.
	Patches []Patch
}

// Patch is one column's new values: row k of Vals is the value of
// record Ords[k], a NULL flagged in Vals.Nulls. Vals has the kind its
// values share, and is mixed (see datum.ColumnVector.Datums) only when
// they share none; a patch of NULLs only is an all-NULL KindNull vector.
type Patch struct {
	Col  int      // schema index, inside the file's schema
	Ords []uint32 // ascending
	Vals datum.ColumnVector
}

// Empty reports whether the overlay changes nothing; a nil one does not.
func (o *Overlay) Empty() bool {
	return o == nil || len(o.Deleted) == 0 && len(o.Patches) == 0
}

// scatter writes the values of records Ords[i:j] into the batch vector
// dst, whose row 0 is ordinal lo. A value of dst's kind is stored in
// place; any other goes through Put, which adopts its kind (an
// unprojected column) or turns the column mixed. A NULL only sets the
// flag, as Put does.
func (p *Patch) scatter(dst *datum.ColumnVector, i, j int, lo uint64) {
	src, ords := &p.Vals, p.Ords[i:j]
	if src.Kind != dst.Kind || src.Kind == datum.KindNull {
		for k, o := range ords {
			dst.Put(int(uint64(o)-lo), src.Datum(i+k))
		}
		return
	}
	nulls := src.Nulls[i:j]
	switch src.Kind {
	case datum.KindInt:
		scatterValues(dst.Ints, dst.Nulls, src.Ints[i:j], nulls, ords, lo)
	case datum.KindFloat:
		scatterValues(dst.Floats, dst.Nulls, src.Floats[i:j], nulls, ords, lo)
	case datum.KindBool:
		scatterValues(dst.Bools, dst.Nulls, src.Bools[i:j], nulls, ords, lo)
	case datum.KindString:
		scatterValues(dst.Strs, dst.Nulls, src.Strs[i:j], nulls, ords, lo)
	}
}

func scatterValues[T any](dst []T, dstNulls []bool, src []T, srcNulls []bool, ords []uint32, lo uint64) {
	for k, o := range ords {
		s := uint64(o) - lo
		dstNulls[s] = srcNulls[k]
		if !srcNulls[k] {
			dst[s] = src[k]
		}
	}
}

// OverlayBuilder folds the records of one load, of one file or of
// many, into overlays. Records go into scratch borrowed from a free
// list, and Finish copies the load out at exact size: one array per
// element type (ordinals, NULL flags, values of each kind), however
// many files, patches and records the load holds.
//
// File starts the next file's overlay and Record the next record of
// it, which Set and Delete then fill. A record that sets nothing and
// deletes nothing is dropped. A file's records may come in any order,
// and of two with one ordinal the later replaces the earlier (a delta
// replayed in transaction order); inside a record the last Set of a
// column wins, and Delete discards the record's sets and ignores later
// ones.
type OverlayBuilder struct {
	s *overlayScratch
}

// overlayScratch is a builder's working storage; everything in it is
// reset by its next borrower.
type overlayScratch struct {
	files []int // index in recs of each file's first record
	recs  []overlayRec
	cells []overlayCell
	// Finish's: the patches being laid out, and per (file, column) the
	// index in groups plus one (0: the column has no patch).
	groups []patchGroup
	slot   []int32
}

type overlayRec struct {
	ord     uint32
	deleted bool
	top     int32 // the highest column set so far, -1 for none
	lo, hi  int32 // the record's sets: cells[lo:hi]
}

type overlayCell struct {
	col int32
	val datum.Datum
}

type patchGroup struct {
	n     int
	kind  datum.Kind // of the first non-NULL value
	mixed bool       // a later value has another kind
}

// maxScratchCells bounds the scratch a builder returns to the free
// list, so one outsized load does not stay pinned in every slot.
const maxScratchCells = 1 << 16

var overlayScratches = freelist.New[overlayScratch]()

// NewOverlayBuilder borrows scratch for one load. Finish or Release
// returns it.
func NewOverlayBuilder() *OverlayBuilder {
	s := overlayScratches.Get()
	s.files, s.recs, s.cells = s.files[:0], s.recs[:0], s.cells[:0]
	return &OverlayBuilder{s: s}
}

// File starts the next file's overlay.
func (b *OverlayBuilder) File() {
	b.s.files = append(b.s.files, len(b.s.recs))
}

// Record starts the record at row ordinal ord of the current file.
func (b *OverlayBuilder) Record(ord uint32) {
	n := int32(len(b.s.cells))
	b.s.recs = append(b.s.recs, overlayRec{ord: ord, top: -1, lo: n, hi: n})
}

// Set gives column col of the current record the value d.
func (b *OverlayBuilder) Set(col int, d datum.Datum) {
	s := b.s
	r := &s.recs[len(s.recs)-1]
	if r.deleted {
		return
	}
	if c := int32(col); c > r.top {
		r.top = c
	} else {
		for i := r.lo; i < r.hi; i++ {
			if s.cells[i].col == c {
				s.cells[i].val = d
				return
			}
		}
	}
	s.cells = append(s.cells, overlayCell{int32(col), d})
	r.hi++
}

// Delete deletes the current record.
func (b *OverlayBuilder) Delete() {
	r := &b.s.recs[len(b.s.recs)-1]
	r.deleted, r.hi = true, r.lo
	b.s.cells = b.s.cells[:r.lo] // the current record's sets are the last
}

// Finish copies the load out and returns the scratch: one overlay per
// File call, in order, empty where the file's records changed nothing,
// or nil when no file's did.
func (b *OverlayBuilder) Finish() []Overlay {
	defer b.Release()
	s := b.s
	nFiles := len(s.files)
	s.files = append(s.files, len(s.recs))
	for f := 0; f < nFiles; f++ {
		order(s.recs[s.files[f]:s.files[f+1]])
	}
	width := 0
	for _, c := range s.cells {
		width = max(width, int(c.col)+1)
	}

	// Count: the deletes, and per (file, column) the values and kinds.
	s.groups = s.groups[:0]
	s.slot = slices.Grow(s.slot[:0], nFiles*width)[:nFiles*width]
	clear(s.slot)
	nDel, nVals := 0, 0
	for f := 0; f < nFiles; f++ {
		for _, r := range s.recs[s.files[f]:s.files[f+1]] {
			if r.deleted {
				nDel++
			}
			for _, c := range s.cells[r.lo:r.hi] {
				k := f*width + int(c.col)
				if s.slot[k] == 0 {
					s.groups = append(s.groups, patchGroup{})
					s.slot[k] = int32(len(s.groups))
				}
				g := &s.groups[s.slot[k]-1]
				g.n++
				nVals++
				switch kind := c.val.K; {
				case kind == datum.KindNull:
				case g.kind == datum.KindNull:
					g.kind = kind
				case g.kind != kind:
					g.mixed = true
				}
			}
		}
	}
	if nDel == 0 && nVals == 0 {
		return nil
	}

	// Lay out: one array per element type, cut into exact-size patches
	// in (file, column) order; slot now maps to the patch index plus one.
	// nKind counts the values each kind's array holds, the mixed
	// patches' Datums under KindNull; a patch of NULLs holds none.
	var nKind [datum.KindBool + 1]int
	for i := range s.groups {
		switch g := &s.groups[i]; {
		case g.mixed:
			nKind[datum.KindNull] += g.n
		case g.kind != datum.KindNull:
			nKind[g.kind] += g.n
		}
	}
	var (
		out     = make([]Overlay, nFiles)
		patches = make([]Patch, len(s.groups))
		ords    = make([]uint32, nDel+nVals)
		nulls   = make([]bool, nVals)
		ints    = make([]int64, nKind[datum.KindInt])
		floats  = make([]float64, nKind[datum.KindFloat])
		bools   = make([]bool, nKind[datum.KindBool])
		strs    = make([]string, nKind[datum.KindString])
		mixed   = make([]datum.Datum, nKind[datum.KindNull])
	)
	next, del := 0, ords[:nDel]
	ords = ords[nDel:]
	for f := 0; f < nFiles; f++ {
		first := next
		for col := 0; col < width; col++ {
			k := f*width + col
			if s.slot[k] == 0 {
				continue
			}
			g := &s.groups[s.slot[k]-1]
			p := &patches[next]
			p.Col, p.Ords = col, take(&ords, g.n)[:0] // fill appends
			v := &p.Vals
			v.Nulls = take(&nulls, g.n)
			switch {
			case g.mixed:
				v.Datums = take(&mixed, g.n)
			case g.kind == datum.KindInt:
				v.Ints = take(&ints, g.n)
			case g.kind == datum.KindFloat:
				v.Floats = take(&floats, g.n)
			case g.kind == datum.KindBool:
				v.Bools = take(&bools, g.n)
			case g.kind == datum.KindString:
				v.Strs = take(&strs, g.n)
			}
			if !g.mixed {
				v.Kind = g.kind
			}
			next++
			s.slot[k] = int32(next)
		}
		out[f].Patches = patches[first:next:next]
	}

	// Fill, a file's records in ordinal order.
	for f := 0; f < nFiles; f++ {
		nd := 0
		for _, r := range s.recs[s.files[f]:s.files[f+1]] {
			if r.deleted {
				del[nd] = r.ord
				nd++
				continue
			}
			for _, c := range s.cells[r.lo:r.hi] {
				patches[s.slot[f*width+int(c.col)]-1].fill(r.ord, c.val)
			}
		}
		if nd > 0 {
			out[f].Deleted = take(&del, nd)
		}
	}
	return out
}

// take cuts the next n elements off the front of *pool.
func take[T any](pool *[]T, n int) []T {
	s := (*pool)[:n:n]
	*pool = (*pool)[n:]
	return s
}

// fill appends record ord's value d to a patch Finish laid out.
func (p *Patch) fill(ord uint32, d datum.Datum) {
	i := len(p.Ords)
	p.Ords = append(p.Ords, ord) // inside the capacity Finish cut
	v := &p.Vals
	switch {
	case d.K == datum.KindNull:
		v.Nulls[i] = true
	case len(v.Datums) > 0:
		v.Datums[i] = d
	case v.Kind == datum.KindInt:
		v.Ints[i] = d.I
	case v.Kind == datum.KindFloat:
		v.Floats[i] = d.F
	case v.Kind == datum.KindBool:
		v.Bools[i] = d.B
	case v.Kind == datum.KindString:
		v.Strs[i] = d.S
	}
}

// order sorts one file's records by ordinal, if they are not strictly
// ascending already, and empties every record a later one with its
// ordinal replaces.
func order(recs []overlayRec) {
	for i := 1; i < len(recs); i++ {
		if recs[i].ord > recs[i-1].ord {
			continue
		}
		slices.SortStableFunc(recs, func(a, b overlayRec) int { return cmp.Compare(a.ord, b.ord) })
		for i := 0; i+1 < len(recs); i++ {
			if recs[i].ord == recs[i+1].ord {
				recs[i].deleted, recs[i].hi = false, recs[i].lo
			}
		}
		return
	}
}

// Release returns the scratch to the free list; Finish calls it, and a
// load that fails calls it instead. Idempotent.
func (b *OverlayBuilder) Release() {
	s := b.s
	if s == nil {
		return
	}
	b.s = nil
	clear(s.cells) // the values' strings
	if cap(s.cells) <= maxScratchCells {
		overlayScratches.Put(s)
	}
}
