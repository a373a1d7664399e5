package kvstore

import (
	"bytes"
	"fmt"
	"path"
	"sync"

	"dualtable/internal/dfs"
	"dualtable/internal/sim"
)

// store is the storage engine of one region: a memtable, a WAL, and a
// stack of immutable store files (newest first). It is the analog of
// an HBase Store/HRegion storage.
type store struct {
	fs  *dfs.FileSystem
	dir string
	cfg StoreConfig

	mu      sync.RWMutex
	mem     *skiplist
	files   []*ssTable // newest first
	nextSeq uint64
	wal     *wal
	closed  bool
}

// StoreConfig tunes a region store.
type StoreConfig struct {
	// FlushThresholdBytes triggers a memtable flush (HBase default is
	// 128 MB; tests use small values).
	FlushThresholdBytes int
	// MaxVersions retained per column after major compaction.
	MaxVersions int
	// BloomEnabled controls bloom filter usage on Get (ablation knob).
	BloomEnabled bool
	// CompactionThreshold is the store file count that triggers an
	// automatic minor compaction after a flush.
	CompactionThreshold int
	// DisableWAL skips write-ahead logging (bulk loads).
	DisableWAL bool
}

// DefaultStoreConfig mirrors HBase defaults scaled for simulation.
func DefaultStoreConfig() StoreConfig {
	return StoreConfig{
		FlushThresholdBytes: 8 << 20,
		MaxVersions:         3,
		BloomEnabled:        true,
		CompactionThreshold: 5,
	}
}

func openStore(fs *dfs.FileSystem, dir string, cfg StoreConfig) (*store, error) {
	if cfg.FlushThresholdBytes <= 0 {
		cfg.FlushThresholdBytes = DefaultStoreConfig().FlushThresholdBytes
	}
	if cfg.MaxVersions <= 0 {
		cfg.MaxVersions = 3
	}
	if cfg.CompactionThreshold <= 0 {
		cfg.CompactionThreshold = 5
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	s := &store{fs: fs, dir: dir, cfg: cfg, mem: newSkiplist()}
	// Open existing store files.
	infos, err := fs.ListFiles(dir)
	if err != nil {
		return nil, err
	}
	for _, fi := range infos {
		if fi.Name == "wal" {
			continue
		}
		st, err := openSSTable(fs, fi.Path, nil)
		if err != nil {
			return nil, fmt.Errorf("kvstore: open %s: %w", fi.Path, err)
		}
		s.files = append(s.files, st)
		if st.seq >= s.nextSeq {
			s.nextSeq = st.seq + 1
		}
	}
	sortFilesBySeqDesc(s.files)
	if !cfg.DisableWAL {
		w, recovered, err := openWAL(fs, path.Join(dir, "wal"))
		if err != nil {
			return nil, err
		}
		s.wal = w
		for i := range recovered {
			s.mem.Insert(recovered[i])
		}
	}
	return s, nil
}

func sortFilesBySeqDesc(files []*ssTable) {
	for i := 1; i < len(files); i++ {
		for j := i; j > 0 && files[j].seq > files[j-1].seq; j-- {
			files[j], files[j-1] = files[j-1], files[j]
		}
	}
}

// put applies a batch of cells: WAL first, then memtable; flushes when
// the memtable exceeds its threshold.
func (s *store) put(cells []*Cell, m *sim.Meter) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("kvstore: store %s is closed", s.dir)
	}
	w := s.wal
	s.mu.Unlock()
	if w != nil {
		if err := w.Append(cells); err != nil {
			return err
		}
	}
	var bytesIn int64
	for _, c := range cells {
		s.mem.Insert(c.Clone())
		bytesIn += int64(c.Size())
		m.KVPut(int64(c.Size()))
	}
	if s.mem.SizeBytes() >= s.cfg.FlushThresholdBytes {
		return s.flush(m)
	}
	return nil
}

// flush writes the memtable to a new store file and truncates the WAL.
func (s *store) flush(m *sim.Meter) error {
	s.mu.Lock()
	if s.mem.Count() == 0 {
		s.mu.Unlock()
		return nil
	}
	old := s.mem
	s.mem = newSkiplist()
	seq := s.nextSeq
	s.nextSeq++
	s.mu.Unlock()

	p := path.Join(s.dir, fmt.Sprintf("sf-%06d", seq))
	it := old.Iterator(nil)
	err := writeSSTableFromIterator(s.fs, p, it, old.Count(), seq, m)
	if err != nil {
		return fmt.Errorf("kvstore: flush to %s: %w", p, err)
	}
	st, err := openSSTable(s.fs, p, nil)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.files = append([]*ssTable{st}, s.files...)
	w := s.wal
	n := len(s.files)
	s.mu.Unlock()
	if w != nil {
		if err := w.Truncate(); err != nil {
			return err
		}
	}
	if n >= s.cfg.CompactionThreshold {
		return s.compact(false, m)
	}
	return nil
}

// get returns all visible cells of one row (latest version per
// column, tombstones applied).
func (s *store) get(row []byte, m *sim.Meter) ([]Cell, error) {
	s.mu.RLock()
	files := append([]*ssTable(nil), s.files...)
	mem := s.mem
	s.mu.RUnlock()

	m.KVGet(0)
	probe := seekProbe(row)
	var srcs []CellIterator
	srcs = append(srcs, &boundedIterator{it: mem.Iterator(probe), row: row})
	for _, f := range files {
		if s.cfg.BloomEnabled && !f.bloom.MayContain(row) {
			continue
		}
		srcs = append(srcs, &boundedIterator{it: f.iterator(row, m), row: row})
	}
	merged := newMergeIterator(srcs)
	defer merged.Close()
	rv := newVersionResolver(merged, s.cfg.MaxVersions)
	var out []Cell
	for {
		c, ok := rv.Next()
		if !ok {
			break
		}
		out = append(out, c.Clone())
	}
	return out, rv.Err()
}

// boundedIterator restricts an iterator to a single row.
type boundedIterator struct {
	it  CellIterator
	row []byte
}

func (b *boundedIterator) Next() (*Cell, bool) {
	c, ok := b.it.Next()
	if !ok || !bytes.Equal(c.Row, b.row) {
		return nil, false
	}
	return c, true
}

func (b *boundedIterator) Close() error { return b.it.Close() }

// scan returns a resolved iterator over [start, end) (nil end = to
// the last row; nil start = from the first row).
func (s *store) scan(start, end []byte, m *sim.Meter, maxVersions int) *scanIterator {
	s.mu.RLock()
	files := append([]*ssTable(nil), s.files...)
	mem := s.mem
	s.mu.RUnlock()

	if maxVersions <= 0 {
		maxVersions = 1
	}
	m.KVSeek()
	var probe *Cell
	if start != nil {
		probe = seekProbe(start)
	}
	var srcs []CellIterator
	srcs = append(srcs, mem.Iterator(probe))
	for _, f := range files {
		srcs = append(srcs, f.iterator(start, m))
	}
	merged := newMergeIterator(srcs)
	return &scanIterator{
		rv:    newVersionResolver(merged, maxVersions),
		end:   end,
		meter: m,
	}
}

// scanIterator yields visible cells within the range, charging scan
// bytes to the meter.
type scanIterator struct {
	rv    *versionResolver
	end   []byte
	meter *sim.Meter
	done  bool
}

// Next returns the next visible cell.
func (it *scanIterator) Next() (*Cell, bool) {
	if it.done {
		return nil, false
	}
	c, ok := it.rv.Next()
	if !ok {
		it.done = true
		return nil, false
	}
	if it.end != nil && bytes.Compare(c.Row, it.end) >= 0 {
		it.done = true
		return nil, false
	}
	it.meter.KVScan(int64(c.Size()))
	return c, true
}

// Close releases the underlying iterators.
func (it *scanIterator) Close() error {
	it.done = true
	return it.rv.Close()
}

// Err returns a deferred iteration error.
func (it *scanIterator) Err() error { return it.rv.Err() }

// compact merges store files. Minor compaction merges the current
// files keeping tombstones; major compaction first flushes the
// memtable, then merges everything, dropping tombstones and versions
// beyond MaxVersions.
func (s *store) compact(major bool, m *sim.Meter) error {
	if major {
		if err := s.flush(m); err != nil {
			return err
		}
	}
	s.mu.Lock()
	files := append([]*ssTable(nil), s.files...)
	if len(files) < 2 && !major {
		s.mu.Unlock()
		return nil
	}
	if len(files) == 0 {
		s.mu.Unlock()
		return nil
	}
	seq := s.nextSeq
	s.nextSeq++
	s.mu.Unlock()

	var srcs []CellIterator
	var expected int
	for _, f := range files {
		srcs = append(srcs, f.iterator(nil, m))
		expected += int(f.entries)
	}
	var it CellIterator = newMergeIterator(srcs)
	it = &dedupIterator{it: it}
	if major {
		it = newCompactionFilter(it, s.cfg.MaxVersions)
	}
	p := path.Join(s.dir, fmt.Sprintf("sf-%06d", seq))
	if err := writeSSTableFromIterator(s.fs, p, it, expected+1, seq, m); err != nil {
		return fmt.Errorf("kvstore: compact to %s: %w", p, err)
	}
	st, err := openSSTable(s.fs, p, nil)
	if err != nil {
		return err
	}
	s.mu.Lock()
	// Replace exactly the files we merged; new flushes that landed
	// meanwhile stay.
	merged := make(map[*ssTable]bool, len(files))
	for _, f := range files {
		merged[f] = true
	}
	var kept []*ssTable
	for _, f := range s.files {
		if !merged[f] {
			kept = append(kept, f)
		}
	}
	s.files = append(kept, st)
	sortFilesBySeqDesc(s.files)
	s.mu.Unlock()
	for _, f := range files {
		if err := s.fs.Delete(f.path, false); err != nil {
			return err
		}
	}
	return nil
}

// dedupIterator removes exact-duplicate keys (same row, column, ts,
// type) that can appear when merging overlapping store files; the
// first (newest file) copy wins.
type dedupIterator struct {
	it   CellIterator
	have bool
	prev Cell // key only
}

func (d *dedupIterator) Next() (*Cell, bool) {
	for {
		c, ok := d.it.Next()
		if !ok {
			return nil, false
		}
		if d.have && CompareCells(c, &d.prev) == 0 {
			continue
		}
		d.prev.setKey(c)
		d.have = true
		return c, true
	}
}

func (d *dedupIterator) Close() error { return d.it.Close() }

// size returns the total on-DFS size of the store files plus the
// memtable estimate.
func (s *store) size() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, f := range s.files {
		total += f.size
	}
	return total + int64(s.mem.SizeBytes())
}

// entryCount estimates the number of stored cells (pre-resolution).
func (s *store) entryCount() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := int64(s.mem.Count())
	for _, f := range s.files {
		total += int64(f.entries)
	}
	return total
}

// fileCount returns the number of store files.
func (s *store) fileCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.files)
}

// middleRow estimates the median row key for region splitting: the
// first row of the middle block of the largest store file.
func (s *store) middleRow() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var largest *ssTable
	for _, f := range s.files {
		if largest == nil || f.size > largest.size {
			largest = f
		}
	}
	if largest == nil || len(largest.index) == 0 {
		return nil
	}
	return append([]byte(nil), largest.index[len(largest.index)/2].firstRow...)
}

func (s *store) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}
