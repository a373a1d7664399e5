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
	cfg     storeConfig

	mu     sync.Mutex
	tables map[string]*Table
	tsOrac atomic.Uint64
}

// NewCluster creates (or reopens) a cluster rooted at baseDir.
func NewCluster(fs *dfs.FileSystem, baseDir string) (*Cluster, error) {
	if err := fs.MkdirAll(baseDir); err != nil {
		return nil, err
	}
	return &Cluster{fs: fs, baseDir: baseDir, cfg: defaultStoreConfig(), tables: map[string]*Table{}}, nil
}

// NextTs returns the next logical timestamp.
func (c *Cluster) NextTs() uint64 { return c.tsOrac.Add(1) }

// CreateTable creates a new, empty table.
func (c *Cluster) CreateTable(name string) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	dir := path.Join(c.baseDir, name)
	if c.fs.Exists(dir) {
		return nil, fmt.Errorf("%w: %s (directory exists)", ErrTableExists, name)
	}
	if err := c.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	st, err := openStore(c.fs, path.Join(dir, "r0"), c.cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{cluster: c, name: name, dir: dir, store: st}
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
	t.store.close()
	return c.fs.Delete(t.dir, true)
}

// TruncateTable drops and recreates a table.
func (c *Cluster) TruncateTable(name string) error {
	if err := c.DropTable(name); err != nil {
		return err
	}
	_, err := c.CreateTable(name)
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

// Table is a sorted map of cells kept in one LSM store, the
// client-facing analog of an HBase table. The store lives in the
// table's r0 directory, where a one-region HBase table keeps it.
type Table struct {
	cluster *Cluster
	name    string
	dir     string
	store   *store

	// mutations counts the starts and the ends of the operations that
	// change what a scan reads or what it is charged for: Put, Flush and
	// Compact each add one on entry and one on return.
	mutations atomic.Uint64
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Mutations returns a counter that moves whenever the table's cells or
// their physical layout (memtable, store files) may have: two equal
// readings mean no Put, Flush or Compact began or returned between
// them, so a scan started after the first reading returns the same
// cells and meters the same charges as one started at the second.
// TruncateTable and DropTable do not move it — they replace the *Table.
func (t *Table) Mutations() uint64 { return t.mutations.Load() }

// Put writes a batch of put cells. Cells with Ts == 0 get a fresh
// logical timestamp (one per batch, so a batch is atomic in version
// space).
func (t *Table) Put(cells []*Cell, m *sim.Meter) error {
	if len(cells) == 0 {
		return nil
	}
	for _, c := range cells {
		if c.Type != TypePut && c.Type != TypeDeleteRow && c.Type != TypeDeleteColumn {
			return fmt.Errorf("kvstore: bad cell type %v", c.Type)
		}
	}
	t.mutations.Add(1)
	defer t.mutations.Add(1)
	return t.store.put(cells, t.cluster.NextTs, m)
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

// RetireRange takes the rows in [start, end) out of the table for good:
// reads stop returning their cells at once, and the next flush or
// compaction leaves them out of the file it writes. Nothing is read or
// logged, so it costs no more for a large range than for an empty one.
// It is for ranges no writer uses again: a put into a retired range is
// hidden until a compaction has emptied the range and the table
// forgets it, and a reopened table forgets every retired range.
func (t *Table) RetireRange(start, end []byte) {
	t.mutations.Add(1)
	defer t.mutations.Add(1)
	t.store.retire(start, end)
}

// Get returns the visible cells of one row (empty if absent/deleted).
func (t *Table) Get(row []byte, m *sim.Meter) ([]Cell, error) {
	return t.store.get(row, m)
}

// Scan describes a range read.
type Scan struct {
	Start       []byte // inclusive; nil = first row
	End         []byte // exclusive; nil = last row
	MaxVersions int    // versions per column (default 1)
	Meter       *sim.Meter
}

// NewScanner opens a scanner over the range.
func (t *Table) NewScanner(s Scan) *Scanner { return &Scanner{st: t.store, scan: s} }

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

// Flush forces the memtable to a store file.
func (t *Table) Flush(m *sim.Meter) error {
	t.mutations.Add(1)
	defer t.mutations.Add(1)
	return t.store.flush(m, 0)
}

// Compact merges the store files, dropping tombstones and the cells
// they mask (major also flushes first and drops versions beyond the
// retained count).
func (t *Table) Compact(major bool, m *sim.Meter) error {
	t.mutations.Add(1)
	defer t.mutations.Add(1)
	return t.store.compact(major, m)
}

// Size returns the approximate stored byte size.
func (t *Table) Size() int64 { return t.store.size() }

// EntryCount returns the raw (unresolved) cell count.
func (t *Table) EntryCount() int64 { return t.store.entryCount() }
