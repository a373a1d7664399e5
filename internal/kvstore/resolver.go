package kvstore

import (
	"bytes"
)

// versionResolver turns a merged, sorted, possibly-duplicated cell
// stream into the visible view: the newest MaxVersions puts per
// column, with row and column tombstones applied (a tombstone at
// timestamp T hides all versions with Ts <= T). It relies on
// CompareCells order: rows ascending, row tombstones first within a
// row, then columns, newest version first.
type versionResolver struct {
	it          CellIterator
	maxVersions int

	curRow   []byte
	rowDelTs uint64
	haveRow  bool

	curFam   string
	curQual  []byte
	haveCol  bool
	colDelTs uint64
	emitted  int

	prev     Cell // key only
	havePrev bool
}

func newVersionResolver(it CellIterator, maxVersions int) *versionResolver {
	if maxVersions <= 0 {
		maxVersions = 1
	}
	return &versionResolver{it: it, maxVersions: maxVersions}
}

// Next returns the next visible put cell.
func (v *versionResolver) Next() (*Cell, bool) {
	for {
		c, ok := v.it.Next()
		if !ok {
			return nil, false
		}
		// Drop exact duplicates from overlapping sources.
		if v.havePrev && CompareCells(c, &v.prev) == 0 {
			continue
		}
		v.prev.setKey(c)
		v.havePrev = true

		if !v.haveRow || !bytes.Equal(c.Row, v.curRow) {
			v.curRow = append(v.curRow[:0], c.Row...)
			v.haveRow = true
			v.rowDelTs = 0
			v.haveCol = false
		}
		if c.Type == TypeDeleteRow {
			if c.Ts > v.rowDelTs {
				v.rowDelTs = c.Ts
			}
			continue
		}
		if !v.haveCol || c.Family != v.curFam || !bytes.Equal(c.Qualifier, v.curQual) {
			v.curFam = c.Family
			v.curQual = append(v.curQual[:0], c.Qualifier...)
			v.haveCol = true
			v.colDelTs = 0
			v.emitted = 0
		}
		switch c.Type {
		case TypeDeleteColumn:
			if c.Ts > v.colDelTs {
				v.colDelTs = c.Ts
			}
		case TypePut:
			if c.Ts <= v.rowDelTs || c.Ts <= v.colDelTs {
				continue
			}
			if v.emitted >= v.maxVersions {
				continue
			}
			v.emitted++
			return c, true
		}
	}
}

// Close closes the source and returns its first read error.
func (v *versionResolver) Close() error { return v.it.Close() }
