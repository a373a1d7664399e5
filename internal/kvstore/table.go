package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"path"
	"sort"
	"sync"
	"sync/atomic"

	"dualtable/internal/dfs"
	"dualtable/internal/sim"
)

// Errors returned by the table layer.
var (
	ErrTableExists   = errors.New("kvstore: table already exists")
	ErrTableNotFound = errors.New("kvstore: table not found")
)

// Cluster manages named tables on one DFS directory tree — the HBase
// master role. A cluster-global logical timestamp oracle provides
// MVCC versions for cells written without an explicit timestamp.
type Cluster struct {
	fs      *dfs.FileSystem
	baseDir string
	defCfg  StoreConfig

	mu     sync.Mutex
	tables map[string]*Table
	tsOrac atomic.Uint64
}

// NewCluster creates (or reopens) a cluster rooted at baseDir.
func NewCluster(fs *dfs.FileSystem, baseDir string, def StoreConfig) (*Cluster, error) {
	if err := fs.MkdirAll(baseDir); err != nil {
		return nil, err
	}
	return &Cluster{fs: fs, baseDir: baseDir, defCfg: def, tables: map[string]*Table{}}, nil
}

// NextTs returns the next logical timestamp.
func (c *Cluster) NextTs() uint64 { return c.tsOrac.Add(1) }

// CreateTable creates a new table with the cluster default store
// configuration (or the optional override).
func (c *Cluster) CreateTable(name string, cfg ...StoreConfig) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	conf := c.defCfg
	if len(cfg) > 0 {
		conf = cfg[0]
	}
	dir := path.Join(c.baseDir, name)
	if c.fs.Exists(dir) {
		return nil, fmt.Errorf("%w: %s (directory exists)", ErrTableExists, name)
	}
	if err := c.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	t := &Table{cluster: c, name: name, dir: dir, cfg: conf, splitThreshold: 1 << 62}
	st, err := openStore(c.fs, path.Join(dir, "r0"), conf)
	if err != nil {
		return nil, err
	}
	t.regions = []*Region{{id: 0, store: st}}
	t.nextRegionID = 1
	c.tables[name] = t
	return t, nil
}

// Table returns an open table by name.
func (c *Cluster) Table(name string) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	return t, nil
}

// HasTable reports whether the named table exists.
func (c *Cluster) HasTable(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.tables[name]
	return ok
}

// DropTable closes and removes a table and its data.
func (c *Cluster) DropTable(name string) error {
	c.mu.Lock()
	t, ok := c.tables[name]
	if ok {
		delete(c.tables, name)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	t.mu.Lock()
	for _, r := range t.regions {
		r.store.close()
	}
	t.regions = nil
	t.mu.Unlock()
	return c.fs.Delete(t.dir, true)
}

// TruncateTable drops and recreates a table, keeping its config.
func (c *Cluster) TruncateTable(name string) error {
	c.mu.Lock()
	t, ok := c.tables[name]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	cfg := t.cfg
	if err := c.DropTable(name); err != nil {
		return err
	}
	_, err := c.CreateTable(name, cfg)
	return err
}

// TableNames lists the open tables, sorted.
func (c *Cluster) TableNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Region is one key-range shard of a table.
type Region struct {
	id    int
	start []byte // inclusive; nil = -inf
	end   []byte // exclusive; nil = +inf
	store *store
}

// Start returns the region's inclusive start key (nil = unbounded).
func (r *Region) Start() []byte { return r.start }

// End returns the region's exclusive end key (nil = unbounded).
func (r *Region) End() []byte { return r.end }

// Table is a sorted, range-partitioned map of cells, the client-facing
// analog of an HBase table.
type Table struct {
	cluster *Cluster
	name    string
	dir     string
	cfg     StoreConfig

	mu             sync.RWMutex
	regions        []*Region // sorted by start key
	nextRegionID   int
	splitThreshold int64

	// mutations counts the starts and the ends of the operations that
	// change what a scan reads or what it is charged for: Put, Flush,
	// Compact and SplitRegion each add one on entry and one on return.
	mutations atomic.Uint64
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Mutations returns a counter that moves whenever the table's cells or
// their physical layout (memtable, store files, regions) may have: two
// equal readings mean no Put, Flush, Compact or SplitRegion began or
// returned between them, so a scan started after the first reading
// returns the same cells and meters the same charges as one started at
// the second. TruncateTable and DropTable do not move it — they replace
// the *Table.
func (t *Table) Mutations() uint64 { return t.mutations.Load() }

// SetSplitThreshold enables automatic region splitting once a region
// exceeds n bytes (disabled by default).
func (t *Table) SetSplitThreshold(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.splitThreshold = n
}

// regionFor locates the region owning the row. Caller must not hold
// t.mu.
func (t *Table) regionFor(row []byte) *Region {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.regionForLocked(row)
}

func (t *Table) regionForLocked(row []byte) *Region {
	i := sort.Search(len(t.regions), func(i int) bool {
		s := t.regions[i].start
		return s != nil && bytes.Compare(s, row) > 0
	})
	if i > 0 {
		i--
	}
	return t.regions[i]
}

// Put writes a batch of put cells. Cells with Ts == 0 get a fresh
// logical timestamp (one per batch, so a batch is atomic in version
// space).
func (t *Table) Put(cells []*Cell, m *sim.Meter) error {
	if len(cells) == 0 {
		return nil
	}
	t.mutations.Add(1)
	defer t.mutations.Add(1)
	var batchTs uint64
	for _, c := range cells {
		if c.Ts == 0 {
			if batchTs == 0 {
				batchTs = t.cluster.NextTs()
			}
			c.Ts = batchTs
		}
		if c.Type != TypePut && c.Type != TypeDeleteRow && c.Type != TypeDeleteColumn {
			return fmt.Errorf("kvstore: bad cell type %v", c.Type)
		}
	}
	// Group by region.
	groups := map[*Region][]*Cell{}
	for _, c := range cells {
		r := t.regionFor(c.Row)
		groups[r] = append(groups[r], c)
	}
	for r, batch := range groups {
		if err := r.store.put(batch, m); err != nil {
			return err
		}
		t.maybeSplit(r, m)
	}
	return nil
}

// PutRow is a convenience writing several column values of one row.
func (t *Table) PutRow(row []byte, family string, qualValues map[string][]byte, m *sim.Meter) error {
	cells := make([]*Cell, 0, len(qualValues))
	for q, v := range qualValues {
		cells = append(cells, &Cell{Row: row, Family: family, Qualifier: []byte(q), Type: TypePut, Value: v})
	}
	return t.Put(cells, m)
}

// DeleteRow writes a row tombstone hiding everything at or before the
// current logical time.
func (t *Table) DeleteRow(row []byte, m *sim.Meter) error {
	return t.Put([]*Cell{{Row: row, Type: TypeDeleteRow}}, m)
}

// DeleteColumn writes a column tombstone.
func (t *Table) DeleteColumn(row []byte, family string, qualifier []byte, m *sim.Meter) error {
	return t.Put([]*Cell{{Row: row, Family: family, Qualifier: qualifier, Type: TypeDeleteColumn}}, m)
}

// Get returns the visible cells of one row (empty if absent/deleted).
func (t *Table) Get(row []byte, m *sim.Meter) ([]Cell, error) {
	return t.regionFor(row).store.get(row, m)
}

// Scan describes a range read.
type Scan struct {
	Start       []byte // inclusive; nil = first row
	End         []byte // exclusive; nil = last row
	MaxVersions int    // versions per column (default 1)
	Meter       *sim.Meter
}

// Scanner iterates visible cells of a table range, across regions.
type Scanner struct {
	table   *Table
	scan    Scan
	regions []*Region
	regIdx  int
	cur     *scanIterator
	err     error
}

// NewScanner opens a scanner over the range.
func (t *Table) NewScanner(s Scan) *Scanner {
	t.mu.RLock()
	regions := append([]*Region(nil), t.regions...)
	t.mu.RUnlock()
	// Prune regions outside the range.
	var keep []*Region
	for _, r := range regions {
		if s.End != nil && r.start != nil && bytes.Compare(r.start, s.End) >= 0 {
			continue
		}
		if s.Start != nil && r.end != nil && bytes.Compare(r.end, s.Start) <= 0 {
			continue
		}
		keep = append(keep, r)
	}
	return &Scanner{table: t, scan: s, regions: keep}
}

// Next returns the next visible cell in row order.
func (sc *Scanner) Next() (*Cell, bool) {
	for {
		if sc.cur == nil {
			if sc.regIdx >= len(sc.regions) {
				return nil, false
			}
			r := sc.regions[sc.regIdx]
			start := sc.scan.Start
			if r.start != nil && (start == nil || bytes.Compare(r.start, start) > 0) {
				start = r.start
			}
			end := sc.scan.End
			if r.end != nil && (end == nil || bytes.Compare(r.end, end) < 0) {
				end = r.end
			}
			sc.cur = r.store.scan(start, end, sc.scan.Meter, sc.scan.MaxVersions)
		}
		c, ok := sc.cur.Next()
		if ok {
			return c, true
		}
		if err := sc.cur.Err(); err != nil && sc.err == nil {
			sc.err = err
		}
		sc.cur.Close()
		sc.cur = nil
		sc.regIdx++
	}
}

// Close releases the scanner.
func (sc *Scanner) Close() error {
	if sc.cur != nil {
		sc.cur.Close()
		sc.cur = nil
	}
	sc.regIdx = len(sc.regions)
	return sc.err
}

// Err returns a deferred scan error.
func (sc *Scanner) Err() error { return sc.err }

// RowResult is one row's visible cells.
type RowResult struct {
	Row   []byte
	Cells []Cell
}

// Value returns the row's value for family:qualifier, or nil.
func (r *RowResult) Value(family string, qualifier []byte) []byte {
	for i := range r.Cells {
		if r.Cells[i].Family == family && bytes.Equal(r.Cells[i].Qualifier, qualifier) {
			return r.Cells[i].Value
		}
	}
	return nil
}

// RowScanner groups a Scanner's cells into rows.
type RowScanner struct {
	sc      *Scanner
	pending *Cell
	done    bool
}

// NewRowScanner opens a row-grouping scanner over the range.
func (t *Table) NewRowScanner(s Scan) *RowScanner {
	return &RowScanner{sc: t.NewScanner(s)}
}

// Next returns the next row.
func (rs *RowScanner) Next() (RowResult, bool) {
	if rs.done {
		return RowResult{}, false
	}
	var res RowResult
	for {
		var c *Cell
		var ok bool
		if rs.pending != nil {
			c, rs.pending = rs.pending, nil
			ok = true
		} else {
			c, ok = rs.sc.Next()
		}
		if !ok {
			rs.done = true
			if res.Row == nil {
				return RowResult{}, false
			}
			return res, true
		}
		if res.Row == nil {
			res.Row = append([]byte(nil), c.Row...)
		} else if !bytes.Equal(res.Row, c.Row) {
			cp := c.Clone()
			rs.pending = &cp
			return res, true
		}
		res.Cells = append(res.Cells, c.Clone())
	}
}

// Close releases the scanner.
func (rs *RowScanner) Close() error {
	rs.done = true
	return rs.sc.Close()
}

// Flush forces all regions' memtables to store files.
func (t *Table) Flush(m *sim.Meter) error {
	t.mutations.Add(1)
	defer t.mutations.Add(1)
	t.mu.RLock()
	regions := append([]*Region(nil), t.regions...)
	t.mu.RUnlock()
	for _, r := range regions {
		if err := r.store.flush(m, 0); err != nil {
			return err
		}
	}
	return nil
}

// Compact runs compaction on all regions (major drops tombstones).
func (t *Table) Compact(major bool, m *sim.Meter) error {
	t.mutations.Add(1)
	defer t.mutations.Add(1)
	t.mu.RLock()
	regions := append([]*Region(nil), t.regions...)
	t.mu.RUnlock()
	for _, r := range regions {
		if err := r.store.compact(major, m); err != nil {
			return err
		}
	}
	return nil
}

// Size returns the approximate stored byte size across regions.
func (t *Table) Size() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var total int64
	for _, r := range t.regions {
		total += r.store.size()
	}
	return total
}

// EntryCount returns the raw (unresolved) cell count across regions.
func (t *Table) EntryCount() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var total int64
	for _, r := range t.regions {
		total += r.store.entryCount()
	}
	return total
}

// RegionCount returns the number of regions.
func (t *Table) RegionCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.regions)
}

// Regions returns a snapshot of the table's regions in key order.
func (t *Table) Regions() []*Region {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*Region(nil), t.regions...)
}

// maybeSplit splits the region when it exceeds the split threshold.
func (t *Table) maybeSplit(r *Region, m *sim.Meter) {
	t.mu.RLock()
	threshold := t.splitThreshold
	t.mu.RUnlock()
	if threshold <= 0 || r.store.size() < threshold {
		return
	}
	_ = t.SplitRegion(r, m) // best effort; a failed split keeps one big region
}

// SplitRegion splits r at its estimated median row key into two
// regions, rewriting the store files. Returns an error when no valid
// split point exists.
func (t *Table) SplitRegion(r *Region, m *sim.Meter) error {
	t.mutations.Add(1)
	defer t.mutations.Add(1)
	if err := r.store.flush(m, 0); err != nil {
		return err
	}
	mid := r.store.middleRow()
	if mid == nil {
		return fmt.Errorf("kvstore: region %d has no split point", r.id)
	}
	if r.start != nil && bytes.Compare(mid, r.start) <= 0 {
		return fmt.Errorf("kvstore: split point below region start")
	}
	if r.end != nil && bytes.Compare(mid, r.end) >= 0 {
		return fmt.Errorf("kvstore: split point beyond region end")
	}

	t.mu.Lock()
	idA, idB := t.nextRegionID, t.nextRegionID+1
	t.nextRegionID += 2
	t.mu.Unlock()

	mkChild := func(id int, lo, hi []byte) (*Region, error) {
		st, err := openStore(t.cluster.fs, path.Join(t.dir, fmt.Sprintf("r%d", id)), t.cfg)
		if err != nil {
			return nil, err
		}
		// Copy this half's raw cells (all versions and tombstones).
		src := r.store.scanRaw(lo, hi, m)
		batch := make([]*Cell, 0, 1024)
		flushBatch := func() error {
			if len(batch) == 0 {
				return nil
			}
			err := st.put(batch, m)
			batch = batch[:0]
			return err
		}
		for {
			c, ok := src.Next()
			if !ok {
				break
			}
			cp := c.Clone()
			batch = append(batch, &cp)
			if len(batch) == 1024 {
				if err := flushBatch(); err != nil {
					src.Close()
					return nil, err
				}
			}
		}
		src.Close()
		if err := flushBatch(); err != nil {
			return nil, err
		}
		if err := st.flush(m, 0); err != nil {
			return nil, err
		}
		return &Region{id: id, start: lo, end: hi, store: st}, nil
	}
	left, err := mkChild(idA, r.start, mid)
	if err != nil {
		return err
	}
	right, err := mkChild(idB, mid, r.end)
	if err != nil {
		return err
	}

	t.mu.Lock()
	for i, reg := range t.regions {
		if reg == r {
			t.regions = append(t.regions[:i], append([]*Region{left, right}, t.regions[i+1:]...)...)
			break
		}
	}
	t.mu.Unlock()
	r.store.close()
	return t.cluster.fs.Delete(r.store.dir, true)
}

// scanRaw iterates the raw (unresolved) cells of [start, end) across
// memtable and files — every version and tombstone, deduplicated.
func (s *store) scanRaw(start, end []byte, m *sim.Meter) CellIterator {
	mem, flushing, files := s.layers()
	var probe *Cell
	if start != nil {
		probe = seekProbe(start)
	}
	srcs := memIterators(mem, flushing, probe)
	for _, f := range files {
		srcs = append(srcs, f.iterator(start, m))
	}
	return &rangeLimitIterator{it: &dedupIterator{it: newMergeIterator(srcs)}, end: end}
}

// rangeLimitIterator stops at the end key.
type rangeLimitIterator struct {
	it  CellIterator
	end []byte
}

func (r *rangeLimitIterator) Next() (*Cell, bool) {
	c, ok := r.it.Next()
	if !ok {
		return nil, false
	}
	if r.end != nil && bytes.Compare(c.Row, r.end) >= 0 {
		return nil, false
	}
	return c, true
}

func (r *rangeLimitIterator) Close() error { return r.it.Close() }
