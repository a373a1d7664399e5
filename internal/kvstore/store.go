package kvstore

import (
	"bytes"
	"fmt"
	"math"
	"path"
	"slices"
	"strings"
	"sync"

	"dualtable/internal/dfs"
	"dualtable/internal/sim"
)

// store is the storage engine of one table: a memtable, a WAL, and a
// stack of immutable store files (newest first). It is the analog of
// an HBase Store.
//
// A flush is atomic for readers and for the log. Under logMu and mu it
// swaps the memtable out and rotates the WAL together, so a batch's log
// record and its memtable insert land on the same side of the swap.
// The swapped memtable stays readable as flushing until its store file
// is installed, and only then is the sealed segment that covered it
// deleted.
//
// A read holds a reference on each store file it merges, and the store
// holds one on each file in its stack. A compaction drops the store's
// reference on the files it replaces; whoever drops the last reference
// deletes the file, so a scan that overlaps a compaction reads every
// block of the files it started with.
type store struct {
	fs  *dfs.FileSystem
	dir string
	cfg storeConfig

	// flushMu runs one flush at a time and guards sealed.
	flushMu sync.Mutex
	sealed  *wal // the segment that logged flushing, until it is deleted
	// compactMu runs one compaction at a time (see compact).
	compactMu sync.Mutex
	// logMu is held shared by a put for its WAL append and memtable
	// insert, and exclusively by a flush's swap and by close; mem, wal
	// and closed change only under both logMu and mu.
	logMu sync.RWMutex

	mu       sync.RWMutex
	mem      *skiplist
	flushing *skiplist  // swapped out, readable until its store file is installed
	files    []*ssTable // newest first
	nextSeq  uint64
	wal      *wal
	closed   bool
	// undeleted holds replaced store files whose delete failed; the
	// next compaction retries them.
	undeleted []string
	// retired holds the row ranges RetireRange took out: reads skip
	// their cells, and flushes and compactions leave them out.
	retired retiredSet

	// onFlushSwapped, when set, runs between a flush's swap and the
	// install of its store file, holding only flushMu (test hook for
	// reading inside the flush window). Set it before any flush runs.
	onFlushSwapped func()
}

// retainedVersions is how many versions per column a get returns and
// a major compaction keeps.
const retainedVersions = 3

// storeConfig holds a store's flush and compaction thresholds; tests
// shrink them.
type storeConfig struct {
	flushBytes   int // memtable size that triggers a flush (HBase: 128 MB)
	compactFiles int // store file count that triggers a minor compaction
}

// defaultStoreConfig mirrors HBase defaults scaled for simulation.
func defaultStoreConfig() storeConfig {
	return storeConfig{flushBytes: 8 << 20, compactFiles: 5}
}

// tmpPrefix marks a store file being written; writeStoreFile renames it
// into place once whole.
const tmpPrefix = "tmp-"

func openStore(fs *dfs.FileSystem, dir string, cfg storeConfig) (*store, error) {
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
		if strings.HasPrefix(fi.Name, walPrefix) {
			continue
		}
		if strings.HasPrefix(fi.Name, tmpPrefix) {
			// A store file a crash left half written; the log or the
			// files it was merging still hold its cells.
			if err := fs.RecoverLease(fi.Path); err != nil {
				return nil, err
			}
			if err := fs.Delete(fi.Path, false); err != nil {
				return nil, err
			}
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
	w, recovered, err := openWAL(fs, dir)
	if err != nil {
		return nil, err
	}
	s.wal = w
	for i := range recovered {
		s.mem.Insert(recovered[i])
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
// the memtable exceeds its threshold. Cells with Ts == 0 get one fresh
// timestamp from nextTs, drawn under logMu like the inserts, so a flush's
// swap separates the timestamps it flushed from every later one (see
// compact).
func (s *store) put(cells []*Cell, nextTs func() uint64, m *sim.Meter) error {
	s.logMu.RLock()
	mem := s.mem
	var err error
	if s.closed {
		err = fmt.Errorf("kvstore: store %s is closed", s.dir)
	} else {
		var batchTs uint64
		for _, c := range cells {
			if c.Ts == 0 {
				if batchTs == 0 {
					batchTs = nextTs()
				}
				c.Ts = batchTs
			}
		}
		if err = s.wal.Append(cells); err == nil {
			for _, c := range cells {
				mem.Insert(c.Clone())
				m.KVPut(int64(c.Size()))
			}
		}
	}
	s.logMu.RUnlock()
	if err != nil {
		return err
	}
	if mem.SizeBytes() >= s.cfg.flushBytes {
		return s.flush(m, s.cfg.flushBytes)
	}
	return nil
}

// flush writes the memtable to a new store file once it holds at least
// atLeast bytes when this flush's turn comes (puts that crossed the
// threshold together flush once), then compacts if the files pile up.
func (s *store) flush(m *sim.Meter, atLeast int) error {
	s.flushMu.Lock()
	n, err := s.flushLocked(m, atLeast)
	s.flushMu.Unlock()
	if err == nil && n >= s.cfg.compactFiles {
		return s.compact(false, m)
	}
	return err
}

// flushLocked swaps and installs the memtable under flushMu and reports
// the store file count after it (0 when nothing was flushed).
func (s *store) flushLocked(m *sim.Meter, atLeast int) (int, error) {
	if s.sealed != nil {
		// An earlier flush failed after its swap: its memtable is still
		// readable and logged, or its sealed segment is still on disk.
		// Finish it first, so no later compaction drops a tombstone that
		// a replay of that segment would outlive.
		if _, err := s.install(m); err != nil {
			return 0, err
		}
	}
	s.logMu.Lock()
	s.mu.Lock()
	if s.mem.Count() == 0 || s.mem.SizeBytes() < atLeast {
		s.mu.Unlock()
		s.logMu.Unlock()
		return 0, nil
	}
	next, err := s.wal.rotate()
	if err == nil {
		s.flushing, s.sealed = s.mem, s.wal
		s.mem, s.wal = newSkiplist(), next
	}
	s.mu.Unlock()
	s.logMu.Unlock()
	if err != nil {
		return 0, err
	}
	if s.onFlushSwapped != nil {
		s.onFlushSwapped()
	}
	return s.install(m)
}

// install writes the flushing memtable, without its retired rows, to a
// store file, puts the file in front of the others, and then deletes
// the sealed segment that logged it. Each step that fails is left for
// the next flush to retry.
func (s *store) install(m *sim.Meter) (int, error) {
	if s.flushing != nil {
		it := s.retiredNow().filter(s.flushing.Iterator(nil))
		st, err := s.writeStoreFile(it, s.flushing.Count(), m)
		if err != nil {
			return 0, fmt.Errorf("kvstore: flush %s: %w", s.dir, err)
		}
		s.mu.Lock()
		s.files = append([]*ssTable{st}, s.files...)
		s.flushing = nil
		s.mu.Unlock()
	}
	if err := s.sealed.remove(); err != nil {
		return 0, err
	}
	s.sealed = nil
	return s.fileCount(), nil
}

// writeStoreFile drains it into the next store file. It writes under a
// temporary name and renames the file into place once whole, so a crash
// leaves either the store file or a tmp- file openStore deletes.
func (s *store) writeStoreFile(it CellIterator, expectedKeys int, m *sim.Meter) (*ssTable, error) {
	s.mu.Lock()
	seq := s.nextSeq
	s.nextSeq++
	s.mu.Unlock()
	name := fmt.Sprintf("sf-%06d", seq)
	p, tmp := path.Join(s.dir, name), path.Join(s.dir, tmpPrefix+name)
	if err := writeSSTableFromIterator(s.fs, tmp, it, expectedKeys, seq, m); err != nil {
		return nil, err
	}
	if err := s.fs.Rename(tmp, p); err != nil {
		return nil, err
	}
	return openSSTable(s.fs, p, nil)
}

// retire takes the rows in [start, end) out of the store.
func (s *store) retire(start, end []byte) {
	s.mu.Lock()
	s.retired = s.retired.with(start, end)
	s.mu.Unlock()
}

// retiredNow returns the retired ranges as they stand.
func (s *store) retiredNow() retiredSet {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.retired
}

// layers snapshots what a read merges, newest first: the memtable, the
// memtable being flushed (nil when none is), and the store files, each
// with a reference the reader gives back through release.
func (s *store) layers() (mem, flushing *skiplist, files []*ssTable) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, f := range s.files {
		f.refs.Add(1)
	}
	return s.mem, s.flushing, append([]*ssTable(nil), s.files...)
}

// release drops one reference on each file. The last reference on a
// replaced file deletes it.
func (s *store) release(files []*ssTable) {
	for _, f := range files {
		if f.refs.Add(-1) == 0 {
			s.remove(f.path)
		}
	}
}

// remove deletes a replaced store file, keeping its path for the next
// compaction to retry when the delete fails.
func (s *store) remove(p string) {
	if err := s.fs.Delete(p, false); err != nil {
		s.mu.Lock()
		s.undeleted = append(s.undeleted, p)
		s.mu.Unlock()
	}
}

// memIterators opens an iterator at probe on each live memtable.
func memIterators(mem, flushing *skiplist, probe *Cell) []CellIterator {
	srcs := []CellIterator{mem.Iterator(probe)}
	if flushing != nil {
		srcs = append(srcs, flushing.Iterator(probe))
	}
	return srcs
}

// get returns all visible cells of one row (the newest
// retainedVersions per column, tombstones applied).
func (s *store) get(row []byte, m *sim.Meter) ([]Cell, error) {
	mem, flushing, files := s.layers()
	defer s.release(files)

	m.KVGet(0)
	if rs := s.retiredNow(); rs.hides(row) {
		return nil, nil
	}
	probe := seekProbe(row)
	srcs := memIterators(mem, flushing, probe)
	for i, it := range srcs {
		srcs[i] = &boundedIterator{it: it, row: row}
	}
	for _, f := range files {
		if !f.bloom.MayContain(row) {
			continue
		}
		srcs = append(srcs, &boundedIterator{it: f.iterator(row, m), row: row})
	}
	rv := newVersionResolver(newMergeIterator(srcs), retainedVersions)
	var out []Cell
	for {
		c, ok := rv.Next()
		if !ok {
			break
		}
		out = append(out, c.Clone())
	}
	return out, rv.Close()
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

// Scanner iterates the visible cells of a table range in row order,
// charging scan bytes to the scan's meter. It takes its sources at the
// first Next: the memtables, whose read locks it holds, a reference on
// each store file, and the retired ranges inside the scan's range. It
// gives them back as soon as Next returns false (a DML sink puts into
// the table it scans before its reader closes), or at Close.
type Scanner struct {
	st    *store
	scan  Scan
	rv    *versionResolver // nil before the first Next and after the end
	files []*ssTable
	// retired holds the retired ranges the scan has not passed yet.
	retired retiredSet
	done    bool
	err     error
}

// Next returns the next visible cell.
func (sc *Scanner) Next() (*Cell, bool) {
	if sc.done {
		return nil, false
	}
	if sc.rv == nil {
		sc.open()
	}
	for {
		c, ok := sc.rv.Next()
		if !ok || (sc.scan.End != nil && bytes.Compare(c.Row, sc.scan.End) >= 0) {
			sc.finish()
			return nil, false
		}
		if sc.retired != nil && sc.retired.hides(c.Row) {
			continue
		}
		sc.scan.Meter.KVScan(int64(c.Size()))
		return c, true
	}
}

// open takes the scan's sources, in the order and with the charges of
// every read: the seek, then each store file's first block.
func (sc *Scanner) open() {
	mem, flushing, files := sc.st.layers()
	sc.files = files
	sc.retired = sc.st.retiredNow().within(sc.scan.Start, sc.scan.End)
	sc.scan.Meter.KVSeek()
	var probe *Cell
	if sc.scan.Start != nil {
		probe = seekProbe(sc.scan.Start)
	}
	srcs := memIterators(mem, flushing, probe)
	for _, f := range files {
		srcs = append(srcs, f.iterator(sc.scan.Start, sc.scan.Meter))
	}
	sc.rv = newVersionResolver(newMergeIterator(srcs), sc.scan.MaxVersions)
}

// finish closes the sources, keeping the first read error, and gives
// back the store file references.
func (sc *Scanner) finish() {
	sc.done = true
	if sc.rv == nil {
		return
	}
	sc.err = sc.rv.Close()
	sc.st.release(sc.files)
	sc.rv, sc.files = nil, nil
}

// Close releases the scanner and returns the first read error.
func (sc *Scanner) Close() error {
	sc.finish()
	return sc.err
}

// Err returns the first read error once Next has returned false.
func (sc *Scanner) Err() error { return sc.err }

// compact merges store files into one, resolving the merged view: a
// tombstone and every put it masks are dropped. Minor compaction merges
// the current files and keeps every remaining put version, so an AS OF
// read inside the retention window stays exact; major compaction first
// flushes the memtable (finishing any flush that failed), then merges
// everything and keeps only retainedVersions per column. A replaced file
// is deleted once no read holds it; a delete that fails is retried by the
// next compaction and fails nothing.
//
// Dropping a tombstone is sound only when every cell it masks is among
// the merged files: a masked put left outside would come back. Table
// timestamps are drawn in put under logMu held shared, and a flush swaps
// the memtable under logMu held exclusively, so every timestamp in a
// flushed memtable is below every timestamp in a later one; and flushes
// install their files in swap order. A tombstone in an installed file
// therefore masks only puts of its own or earlier memtables, whose files
// are installed too: in the stack this compaction merges, or in the
// output of an earlier compaction that is. Compactions run one at a time,
// so no other compaction merges part of the same history and installs a
// view that still holds a put this one dropped the tombstone of. (A put
// with an explicit timestamp below an already dropped tombstone is
// visible, as after an HBase major compaction.)
//
// A compaction also leaves out the rows of the ranges retired when it
// started. When it merged every file and no memtable holds a cell of
// such a range, nothing does, and the store forgets the range.
func (s *store) compact(major bool, m *sim.Meter) error {
	if major {
		if err := s.flush(m, 0); err != nil {
			return err
		}
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	retry := s.undeleted
	s.undeleted = nil
	s.mu.Unlock()
	for _, p := range retry {
		s.remove(p)
	}
	_, _, files := s.layers()
	defer s.release(files)
	if len(files) == 0 || (len(files) < 2 && !major) {
		return nil
	}
	retired := s.retiredNow()

	var srcs []CellIterator
	var expected int
	for _, f := range files {
		srcs = append(srcs, f.iterator(nil, m))
		expected += int(f.entries)
	}
	versions := math.MaxInt
	if major {
		versions = retainedVersions
	}
	st, err := s.writeStoreFile(retired.filter(newVersionResolver(newMergeIterator(srcs), versions)), expected+1, m)
	if err != nil {
		return fmt.Errorf("kvstore: compact %s: %w", s.dir, err)
	}
	// Replace exactly the merged files: new flushes that landed
	// meanwhile stay.
	s.mu.Lock()
	kept, replaced := []*ssTable{st}, []*ssTable(nil)
	for _, f := range s.files {
		if slices.Contains(files, f) {
			replaced = append(replaced, f)
		} else {
			kept = append(kept, f)
		}
	}
	s.files = kept
	sortFilesBySeqDesc(s.files)
	// With no flush landed or in flight, the merged files were every
	// file, so the ranges retired before the merge are gone from them
	// all, and every later flush leaves them out.
	whole, mem := len(kept) == 1 && s.flushing == nil, s.mem
	s.mu.Unlock()
	s.release(replaced)
	if whole && len(retired) > 0 {
		s.forgetEmptied(retired, mem)
	}
	return nil
}

// forgetEmptied forgets the ranges of retired that mem holds no cell
// of. It reads mem without holding mu: a scan holds a memtable's read
// lock while it takes mu.
func (s *store) forgetEmptied(retired retiredSet, mem *skiplist) {
	var gone retiredSet
	for _, r := range retired {
		if !mem.holds(r) {
			gone = append(gone, r)
		}
	}
	if len(gone) == 0 {
		return
	}
	s.mu.Lock()
	s.retired = s.retired.without(gone)
	s.mu.Unlock()
}

// size returns the total on-DFS size of the store files plus the
// memtable estimate.
func (s *store) size() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := int64(s.mem.SizeBytes())
	if s.flushing != nil {
		total += int64(s.flushing.SizeBytes())
	}
	for _, f := range s.files {
		total += f.size
	}
	return total
}

// entryCount estimates the number of stored cells (pre-resolution).
func (s *store) entryCount() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := int64(s.mem.Count())
	if s.flushing != nil {
		total += int64(s.flushing.Count())
	}
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

func (s *store) close() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.Close()
}
