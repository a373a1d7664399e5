package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"dualtable/internal/dfs"
	"dualtable/internal/sim"
)

// Store files are the on-DFS representation of flushed memtables —
// the equivalent of HBase HFiles. Layout:
//
//	[data block]*  each: uvarint(cellCount) cell*
//	[bloom filter block]
//	[index block]  uvarint(blockCount) then per block:
//	               uvarint(firstRowLen) firstRow uvarint(off) uvarint(len)
//	[trailer]      9 fixed uint64 LE fields:
//	               indexOff indexLen filterOff filterLen entries seq minTs maxTs magic
const (
	ssMagic        = 0xD0A17AB1E0000001
	trailerSize    = 9 * 8
	defaultBlockSz = 4 << 10
)

// ssTableWriter streams sorted cells into a store file.
type ssTableWriter struct {
	w        *dfs.FileWriter
	blockBuf []byte
	blockN   int
	firstRow []byte
	off      uint64

	index   []indexEntry
	bloom   *bloomFilter
	entries uint64
	seq     uint64
	minTs   uint64
	maxTs   uint64
	lastRow []byte
	blockSz int
}

type indexEntry struct {
	firstRow []byte
	off      uint64
	length   uint64
}

func newSSTableWriter(w *dfs.FileWriter, expectedKeys int, seq uint64) *ssTableWriter {
	return &ssTableWriter{
		w:       w,
		bloom:   newBloomFilter(expectedKeys, 0.01),
		seq:     seq,
		minTs:   ^uint64(0),
		blockSz: defaultBlockSz,
	}
}

// Add appends a cell; cells must arrive in CompareCells order.
func (sw *ssTableWriter) Add(c *Cell) error {
	if sw.blockN == 0 {
		sw.firstRow = append(sw.firstRow[:0], c.Row...)
	}
	sw.blockBuf = appendCell(sw.blockBuf, c)
	sw.blockN++
	sw.entries++
	if c.Ts < sw.minTs {
		sw.minTs = c.Ts
	}
	if c.Ts > sw.maxTs {
		sw.maxTs = c.Ts
	}
	if !bytes.Equal(sw.lastRow, c.Row) {
		sw.bloom.Add(c.Row)
		sw.lastRow = append(sw.lastRow[:0], c.Row...)
	}
	if len(sw.blockBuf) >= sw.blockSz {
		return sw.flushBlock()
	}
	return nil
}

func (sw *ssTableWriter) flushBlock() error {
	if sw.blockN == 0 {
		return nil
	}
	hdr := binary.AppendUvarint(nil, uint64(sw.blockN))
	length := uint64(len(hdr) + len(sw.blockBuf))
	if _, err := sw.w.Write(hdr); err != nil {
		return err
	}
	if _, err := sw.w.Write(sw.blockBuf); err != nil {
		return err
	}
	sw.index = append(sw.index, indexEntry{
		firstRow: append([]byte(nil), sw.firstRow...),
		off:      sw.off,
		length:   length,
	})
	sw.off += length
	sw.blockBuf = sw.blockBuf[:0]
	sw.blockN = 0
	return nil
}

// Finish writes the filter, index and trailer and closes the file.
func (sw *ssTableWriter) Finish() error {
	if err := sw.flushBlock(); err != nil {
		return err
	}
	filterOff := sw.off
	filter := sw.bloom.Marshal()
	if _, err := sw.w.Write(filter); err != nil {
		return err
	}
	indexOff := filterOff + uint64(len(filter))
	idx := binary.AppendUvarint(nil, uint64(len(sw.index)))
	for _, e := range sw.index {
		idx = binary.AppendUvarint(idx, uint64(len(e.firstRow)))
		idx = append(idx, e.firstRow...)
		idx = binary.AppendUvarint(idx, e.off)
		idx = binary.AppendUvarint(idx, e.length)
	}
	if _, err := sw.w.Write(idx); err != nil {
		return err
	}
	if sw.entries == 0 {
		sw.minTs = 0
	}
	var tr [trailerSize]byte
	fields := []uint64{
		indexOff, uint64(len(idx)), filterOff, uint64(len(filter)),
		sw.entries, sw.seq, sw.minTs, sw.maxTs, ssMagic,
	}
	for i, f := range fields {
		binary.LittleEndian.PutUint64(tr[i*8:], f)
	}
	if _, err := sw.w.Write(tr[:]); err != nil {
		return err
	}
	return sw.w.Close()
}

// ssTable is an open, immutable store file.
type ssTable struct {
	fs      *dfs.FileSystem
	path    string
	index   []indexEntry
	bloom   *bloomFilter
	entries uint64
	seq     uint64
	minTs   uint64
	maxTs   uint64
	size    int64
	// refs counts the holders of the file: the opener, whose reference
	// passes to the store's stack, and every read that merges it.
	refs atomic.Int64
}

// openSSTable reads the trailer, index and bloom filter of a store
// file. Block data stays on DFS and is fetched per read.
func openSSTable(fs *dfs.FileSystem, path string, m *sim.Meter) (*ssTable, error) {
	r, err := fs.OpenMeter(path, m)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	size := r.Size()
	if size < trailerSize {
		return nil, fmt.Errorf("kvstore: store file %s too small (%d bytes)", path, size)
	}
	var tr [trailerSize]byte
	if _, err := r.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, fmt.Errorf("kvstore: read trailer of %s: %w", path, err)
	}
	get := func(i int) uint64 { return binary.LittleEndian.Uint64(tr[i*8:]) }
	if get(8) != ssMagic {
		return nil, fmt.Errorf("kvstore: %s is not a store file (bad magic)", path)
	}
	st := &ssTable{
		fs: fs, path: path,
		entries: get(4), seq: get(5), minTs: get(6), maxTs: get(7),
		size: size,
	}
	st.refs.Store(1)
	indexOff, indexLen := get(0), get(1)
	filterOff, filterLen := get(2), get(3)
	fb := make([]byte, filterLen)
	if _, err := r.ReadAt(fb, int64(filterOff)); err != nil {
		return nil, fmt.Errorf("kvstore: read filter of %s: %w", path, err)
	}
	if st.bloom, err = unmarshalBloom(fb); err != nil {
		return nil, err
	}
	ib := make([]byte, indexLen)
	if _, err := r.ReadAt(ib, int64(indexOff)); err != nil {
		return nil, fmt.Errorf("kvstore: read index of %s: %w", path, err)
	}
	n, consumed := binary.Uvarint(ib)
	if consumed <= 0 {
		return nil, fmt.Errorf("kvstore: bad index header in %s", path)
	}
	off := consumed
	st.index = make([]indexEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		l, c := binary.Uvarint(ib[off:])
		if c <= 0 {
			return nil, fmt.Errorf("kvstore: bad index entry in %s", path)
		}
		off += c
		row := ib[off : off+int(l)]
		off += int(l)
		bo, c2 := binary.Uvarint(ib[off:])
		if c2 <= 0 {
			return nil, fmt.Errorf("kvstore: bad index offset in %s", path)
		}
		off += c2
		bl, c3 := binary.Uvarint(ib[off:])
		if c3 <= 0 {
			return nil, fmt.Errorf("kvstore: bad index length in %s", path)
		}
		off += c3
		st.index = append(st.index, indexEntry{firstRow: append([]byte(nil), row...), off: bo, length: bl})
	}
	return st, nil
}

// blockCells reads and decodes one data block. The cells alias the
// block buffer, which this call allocates and nothing writes again, so
// a block costs the buffer and the cell slice whatever the number of
// cells it holds, and its cells stay valid as long as they are held.
func (st *ssTable) blockCells(e indexEntry, m *sim.Meter) ([]Cell, error) {
	r, err := st.fs.OpenMeter(st.path, m)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	buf := make([]byte, e.length)
	if _, err := r.ReadAt(buf, int64(e.off)); err != nil {
		return nil, fmt.Errorf("kvstore: read block of %s: %w", st.path, err)
	}
	n, consumed := binary.Uvarint(buf)
	if consumed <= 0 {
		return nil, fmt.Errorf("kvstore: bad block header in %s", st.path)
	}
	cells := make([]Cell, 0, n)
	off, fam := consumed, ""
	for i := uint64(0); i < n; i++ {
		c, cn, err := decodeCell(buf[off:], fam)
		if err != nil {
			return nil, fmt.Errorf("kvstore: decode cell in %s: %w", st.path, err)
		}
		cells = append(cells, c)
		off, fam = off+cn, c.Family
	}
	return cells, nil
}

// seekBlock returns the index of the first block that could contain
// row (the last block whose firstRow <= row), or 0.
func (st *ssTable) seekBlock(row []byte) int {
	i := sort.Search(len(st.index), func(i int) bool {
		return bytes.Compare(st.index[i].firstRow, row) > 0
	})
	if i > 0 {
		i--
	}
	return i
}

// ssTableIterator streams the file's cells in order, starting at the
// first cell with Row >= startRow (or the file start when nil).
type ssTableIterator struct {
	st       *ssTable
	meter    *sim.Meter
	blockIdx int
	cells    []Cell
	cellIdx  int
	err      error
}

func (st *ssTable) iterator(startRow []byte, m *sim.Meter) *ssTableIterator {
	it := &ssTableIterator{st: st, meter: m}
	if len(st.index) == 0 {
		it.blockIdx = 0
		return it
	}
	if startRow == nil {
		it.blockIdx = 0
	} else {
		it.blockIdx = st.seekBlock(startRow)
	}
	it.loadBlock()
	if startRow != nil {
		// Skip cells before startRow.
		probe := *seekProbe(startRow)
		for {
			if it.cellIdx < len(it.cells) {
				if CompareCells(&it.cells[it.cellIdx], &probe) >= 0 ||
					bytes.Compare(it.cells[it.cellIdx].Row, startRow) >= 0 {
					break
				}
				it.cellIdx++
				continue
			}
			it.blockIdx++
			if !it.loadBlock() {
				break
			}
		}
	}
	return it
}

// loadBlock loads the current block; returns false past the end.
func (it *ssTableIterator) loadBlock() bool {
	if it.blockIdx >= len(it.st.index) {
		it.cells = nil
		it.cellIdx = 0
		return false
	}
	cells, err := it.st.blockCells(it.st.index[it.blockIdx], it.meter)
	if err != nil {
		it.err = err
		it.cells = nil
		return false
	}
	it.cells = cells
	it.cellIdx = 0
	return true
}

func (it *ssTableIterator) Next() (*Cell, bool) {
	for {
		if it.err != nil {
			return nil, false
		}
		if it.cellIdx < len(it.cells) {
			c := &it.cells[it.cellIdx]
			it.cellIdx++
			return c, true
		}
		it.blockIdx++
		if !it.loadBlock() {
			return nil, false
		}
	}
}

func (it *ssTableIterator) Close() error { return it.err }

// mergeIterator merges several CellIterators into one ordered stream.
// Ties (identical row/col/ts/type from different sources) are broken
// by source priority: lower source index wins and the duplicates are
// all emitted (version resolution happens in the read view).
type mergeIterator struct {
	srcs  []CellIterator
	heads []*Cell
	valid []bool
}

func newMergeIterator(srcs []CellIterator) *mergeIterator {
	m := &mergeIterator{
		srcs:  srcs,
		heads: make([]*Cell, len(srcs)),
		valid: make([]bool, len(srcs)),
	}
	for i, s := range srcs {
		m.heads[i], m.valid[i] = s.Next()
	}
	return m
}

func (m *mergeIterator) Next() (*Cell, bool) {
	best := -1
	for i := range m.srcs {
		if !m.valid[i] {
			continue
		}
		if best == -1 || CompareCells(m.heads[i], m.heads[best]) < 0 {
			best = i
		}
	}
	if best == -1 {
		return nil, false
	}
	c := m.heads[best]
	m.heads[best], m.valid[best] = m.srcs[best].Next()
	return c, true
}

func (m *mergeIterator) Close() error {
	var first error
	for _, s := range m.srcs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writeSSTableFromIterator drains it into a new store file at path.
func writeSSTableFromIterator(fs *dfs.FileSystem, path string, it CellIterator, expectedKeys int, seq uint64, m *sim.Meter) (err error) {
	fw, err := fs.CreateMeter(path, m)
	if err != nil {
		return err
	}
	sw := newSSTableWriter(fw, expectedKeys, seq)
	for {
		c, ok := it.Next()
		if !ok {
			break
		}
		if err := sw.Add(c); err != nil {
			it.Close()
			return err
		}
	}
	if err := it.Close(); err != nil {
		return err
	}
	return sw.Finish()
}

var _ io.Closer = (*ssTableIterator)(nil)
