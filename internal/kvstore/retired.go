package kvstore

import (
	"bytes"
	"sort"
)

// keyRange is the half-open row range [start, end).
type keyRange struct{ start, end []byte }

// retiredSet holds the row ranges RetireRange took out of a table,
// sorted, disjoint and never touching (touching ranges are merged). A
// set is never modified once built: with returns a new one, so a
// reader keeps the set it took without holding a lock.
type retiredSet []keyRange

// with returns the set with [start, end) added, merged with every range
// it overlaps or touches.
func (rs retiredSet) with(start, end []byte) retiredSet {
	if bytes.Compare(start, end) >= 0 {
		return rs
	}
	// Ranges i..j-1 overlap or touch [start, end).
	i := sort.Search(len(rs), func(k int) bool { return bytes.Compare(rs[k].end, start) >= 0 })
	j := sort.Search(len(rs), func(k int) bool { return bytes.Compare(rs[k].start, end) > 0 })
	r := keyRange{bytes.Clone(start), bytes.Clone(end)}
	if i < j {
		if bytes.Compare(rs[i].start, r.start) < 0 {
			r.start = rs[i].start
		}
		if bytes.Compare(rs[j-1].end, r.end) > 0 {
			r.end = rs[j-1].end
		}
	}
	out := make(retiredSet, 0, len(rs)-(j-i)+1)
	out = append(out, rs[:i]...)
	out = append(out, r)
	return append(out, rs[j:]...)
}

// within returns the ranges that overlap [start, end); a nil bound is
// open.
func (rs retiredSet) within(start, end []byte) retiredSet {
	i, j := 0, len(rs)
	if start != nil {
		i = sort.Search(len(rs), func(k int) bool { return bytes.Compare(rs[k].end, start) > 0 })
	}
	if end != nil {
		j = sort.Search(len(rs), func(k int) bool { return bytes.Compare(rs[k].start, end) >= 0 })
	}
	if i >= j {
		return nil
	}
	return rs[i:j]
}

// hides reports whether row lies in a retired range, for rows visited
// in ascending order: it drops the ranges that end at or before row, so
// a sorted pass costs one comparison or two per row.
func (rs *retiredSet) hides(row []byte) bool {
	for len(*rs) > 0 && bytes.Compare((*rs)[0].end, row) <= 0 {
		*rs = (*rs)[1:]
	}
	return len(*rs) > 0 && bytes.Compare((*rs)[0].start, row) <= 0
}

// filter returns it without the cells of retired rows (it itself when
// no range is retired).
func (rs retiredSet) filter(it CellIterator) CellIterator {
	if len(rs) == 0 {
		return it
	}
	return &retiredFilter{it: it, rs: rs}
}

// retiredFilter drops the cells of retired rows from a sorted stream.
type retiredFilter struct {
	it CellIterator
	rs retiredSet
}

func (f *retiredFilter) Next() (*Cell, bool) {
	for {
		c, ok := f.it.Next()
		if !ok || !f.rs.hides(c.Row) {
			return c, ok
		}
	}
}

func (f *retiredFilter) Close() error { return f.it.Close() }

// without returns the set without the ranges that are in gone
// unchanged (a range that grew since holds rows gone does not speak
// for).
func (rs retiredSet) without(gone retiredSet) retiredSet {
	var out retiredSet
	for _, r := range rs {
		k := sort.Search(len(gone), func(k int) bool { return bytes.Compare(gone[k].start, r.start) >= 0 })
		if k < len(gone) && bytes.Equal(gone[k].start, r.start) && bytes.Equal(gone[k].end, r.end) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// holds reports whether the memtable has a cell in r.
func (s *skiplist) holds(r keyRange) bool {
	it := s.Iterator(seekProbe(r.start))
	defer it.Close()
	c, ok := it.Next()
	return ok && bytes.Compare(c.Row, r.end) < 0
}
