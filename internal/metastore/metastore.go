// Package metastore tracks table metadata for the query engine: the
// schema, the storage format (ORC on DFS, the key-value store, or
// DualTable's hybrid), and the storage location — the role Hive's
// metastore plays in the paper's Figure 3.
package metastore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"dualtable/internal/datum"
)

// StorageKind identifies a table's storage handler.
type StorageKind uint8

// Storage kinds supported by the engine.
const (
	// StorageORC stores a directory of ORC files on the DFS — plain
	// Hive(HDFS) in the paper's experiments.
	StorageORC StorageKind = iota
	// StorageKV stores rows in the key-value store — the Hive(HBase)
	// baseline.
	StorageKV
	// StorageDual is the paper's hybrid: ORC master table + KV
	// attached table.
	StorageDual
	// StorageText is a delimited text directory on the DFS (LOAD DATA
	// sources).
	StorageText
	// StorageAcid is the Hive-ACID-style base + delta layout the paper
	// compares against conceptually in §V-C: both the original data
	// and the modification information live on the DFS, and reads
	// merge-sort the base with every delta.
	StorageAcid
)

// String names the storage kind as used in STORED AS clauses.
func (k StorageKind) String() string {
	switch k {
	case StorageORC:
		return "ORC"
	case StorageKV:
		return "HBASE"
	case StorageDual:
		return "DUALTABLE"
	case StorageText:
		return "TEXTFILE"
	case StorageAcid:
		return "ACID"
	default:
		return fmt.Sprintf("STORAGE(%d)", uint8(k))
	}
}

// KindFromName parses a STORED AS format name.
func KindFromName(name string) (StorageKind, error) {
	switch strings.ToUpper(name) {
	case "", "ORC":
		return StorageORC, nil
	case "HBASE", "KV":
		return StorageKV, nil
	case "DUALTABLE", "DUAL":
		return StorageDual, nil
	case "TEXTFILE", "TEXT":
		return StorageText, nil
	case "ACID":
		return StorageAcid, nil
	default:
		return StorageORC, fmt.Errorf("metastore: unknown storage format %q", name)
	}
}

// Errors returned by the metastore.
var (
	ErrTableExists   = errors.New("metastore: table already exists")
	ErrTableNotFound = errors.New("metastore: table not found")
)

// TableDesc describes one table.
type TableDesc struct {
	Name     string
	Schema   datum.Schema
	Storage  StorageKind
	Location string // DFS directory or KV table name (handler-specific)
	// Properties carries handler-specific state (DualTable's
	// incarnation tag).
	Properties map[string]string
}

// Clone deep-copies the descriptor.
func (d *TableDesc) Clone() *TableDesc {
	cp := *d
	cp.Schema = d.Schema.Clone()
	cp.Properties = make(map[string]string, len(d.Properties))
	for k, v := range d.Properties {
		cp.Properties[k] = v
	}
	return &cp
}

// Metastore is an in-memory catalog of tables. Names are
// case-insensitive, as in Hive.
type Metastore struct {
	mu     sync.RWMutex
	tables map[string]*TableDesc // key: lower-case name
	// manifests holds each table's epoch-numbered snapshot chain
	// (see manifest.go); it is keyed independently of tables so a
	// storage handler can publish the initial manifest during Create,
	// before the descriptor is registered.
	manifests map[string]*manifestChain
	// chainSeq assigns manifest chain identities (see manifestChain.id).
	chainSeq uint64
}

// New creates an empty metastore.
func New() *Metastore {
	return &Metastore{tables: map[string]*TableDesc{}}
}

// Create registers a table.
func (m *Metastore) Create(desc *TableDesc) error {
	if desc.Name == "" {
		return fmt.Errorf("metastore: empty table name")
	}
	if len(desc.Schema) == 0 {
		return fmt.Errorf("metastore: table %s has no columns", desc.Name)
	}
	seen := map[string]bool{}
	for _, c := range desc.Schema {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return fmt.Errorf("metastore: duplicate column %q in table %s", c.Name, desc.Name)
		}
		seen[lc] = true
	}
	key := strings.ToLower(desc.Name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.tables[key]; ok {
		return fmt.Errorf("%w: %s", ErrTableExists, desc.Name)
	}
	if desc.Properties == nil {
		desc.Properties = map[string]string{}
	}
	m.tables[key] = desc.Clone()
	return nil
}

// Get returns the descriptor of a table (a copy).
func (m *Metastore) Get(name string) (*TableDesc, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	return d.Clone(), nil
}

// Exists reports whether the table is registered.
func (m *Metastore) Exists(name string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.tables[strings.ToLower(name)]
	return ok
}

// Drop removes a table.
func (m *Metastore) Drop(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := m.tables[key]; !ok {
		return fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	delete(m.tables, key)
	return nil
}

// List returns all table names, sorted.
func (m *Metastore) List() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.tables))
	for _, d := range m.tables {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// TableProperty reads one property of a registered table without
// cloning the descriptor (publish-path hot accessor). ok is false when
// the table is not registered.
func (m *Metastore) TableProperty(name, key string) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.tables[strings.ToLower(name)]
	if !ok {
		return "", false
	}
	return d.Properties[key], true
}
