// Package dfs implements an HDFS-like distributed file system
// simulator: a namespace tree managed by a namenode, fixed-size blocks
// replicated across simulated datanodes, append-only write-once files,
// and streaming reads. It is the storage substrate for DualTable's
// Master Tables (paper §III-A) exactly as HDFS is in the paper: files
// are the unit of consistency, there are no random writes, and batch
// reads are cheap.
//
// The implementation keeps block payloads in memory (one physical copy
// per block; replication is tracked as placement metadata and counted
// in the write metrics) and charges all I/O to an optional sim.Meter,
// so experiments can report cluster-calibrated simulated seconds.
package dfs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Common errors returned by namespace operations.
var (
	ErrNotFound     = errors.New("dfs: no such file or directory")
	ErrExists       = errors.New("dfs: file already exists")
	ErrIsDirectory  = errors.New("dfs: is a directory")
	ErrNotDirectory = errors.New("dfs: not a directory")
	ErrNotEmpty     = errors.New("dfs: directory not empty")
	ErrFileOpen     = errors.New("dfs: file is open for writing")
	ErrClosed       = errors.New("dfs: handle is closed")
	ErrCorruptBlock = errors.New("dfs: block checksum mismatch")
	ErrInvalidPath  = errors.New("dfs: invalid path")
)

// Config configures a FileSystem.
type Config struct {
	// BlockSize is the chunk size; the paper's clusters use 64 MB.
	BlockSize int64
	// VerifyOnRead enables per-block CRC verification on every read.
	VerifyOnRead bool
}

// DefaultConfig mirrors the paper's HDFS settings: 64 MB blocks.
func DefaultConfig() Config {
	return Config{BlockSize: 64 << 20, VerifyOnRead: false}
}

type blockID uint64

type block struct {
	data   []byte
	crc    uint32
	sealed bool // checksum fixed; no more appends
}

type fileMeta struct {
	blocks   []blockID
	size     int64
	writing  bool
	mtime    uint64 // logical timestamp
	fileID   uint64 // opaque user-settable ID (used by ORC master files)
	userMeta map[string]string
	// pins counts snapshot references holding this file alive; a
	// condemned file is physically removed when the last pin drops
	// (DualTable's superseded master files stay readable until every
	// scan pinning a pre-compaction epoch closes).
	pins      int
	condemned bool
}

type node struct {
	name     string
	dir      bool
	children map[string]*node
	file     *fileMeta
}

// FileSystem is the simulated HDFS instance.
type FileSystem struct {
	cfg Config

	mu    sync.RWMutex
	root  *node
	clock uint64 // logical mtime counter

	blkMu  sync.RWMutex
	blocks map[blockID]*block
	nextID uint64

	injector atomic.Pointer[FaultInjector]

	// Metrics.
	bytesRead       atomic.Int64
	bytesWritten    atomic.Int64
	filesCreated    atomic.Int64
	filesDeleted    atomic.Int64
	opensForRead    atomic.Int64
	corruptedBlocks atomic.Int64
}

// New creates a filesystem with the given configuration. Zero-value
// fields are filled from DefaultConfig.
func New(cfg Config) *FileSystem {
	def := DefaultConfig()
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = def.BlockSize
	}
	return &FileSystem{
		cfg:    cfg,
		root:   &node{name: "/", dir: true, children: map[string]*node{}},
		blocks: map[blockID]*block{},
	}
}

// Config returns the filesystem configuration.
func (fs *FileSystem) Config() Config { return fs.cfg }

// cleanPath validates an absolute path and returns its components as
// one clean string without the leading "/" ("" for the root), walked in
// place: path.Clean hands an already clean path back as it is, so a
// lookup of one allocates nothing.
func cleanPath(p string) (string, error) {
	if p == "" || p[0] != '/' {
		return "", fmt.Errorf("%w: %q (must be absolute)", ErrInvalidPath, p)
	}
	return path.Clean(p)[1:], nil
}

// walk follows the components of the clean path rest from the root; a
// missing component, or a file on the way, fails for p.
func (fs *FileSystem) walk(rest, p string) (*node, error) {
	cur := fs.root
	for rest != "" {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		if !cur.dir {
			return nil, fmt.Errorf("%w: %q", ErrNotDirectory, p)
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, p)
		}
		cur = next
	}
	return cur, nil
}

// lookup walks to the node for p. Caller holds fs.mu.
func (fs *FileSystem) lookup(p string) (*node, error) {
	clean, err := cleanPath(p)
	if err != nil {
		return nil, err
	}
	return fs.walk(clean, p)
}

// lookupParent returns the parent directory node and the final
// component. Caller holds fs.mu.
func (fs *FileSystem) lookupParent(p string) (*node, string, error) {
	clean, err := cleanPath(p)
	if err != nil {
		return nil, "", err
	}
	if clean == "" {
		return nil, "", fmt.Errorf("%w: cannot operate on root", ErrInvalidPath)
	}
	i := strings.LastIndexByte(clean, '/') // -1: the parent is the root
	parent, err := fs.walk(clean[:max(i, 0)], p)
	if err != nil {
		return nil, "", err
	}
	if !parent.dir {
		return nil, "", fmt.Errorf("%w: %q", ErrNotDirectory, p)
	}
	return parent, clean[i+1:], nil
}

func (fs *FileSystem) tick() uint64 {
	fs.clock++
	return fs.clock
}

// Mkdir creates one directory; parents must exist.
func (fs *FileSystem) Mkdir(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	if !parent.dir {
		return fmt.Errorf("%w: %q", ErrNotDirectory, p)
	}
	if _, ok := parent.children[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, p)
	}
	parent.children[name] = &node{name: name, dir: true, children: map[string]*node{}}
	return nil
}

// MkdirAll creates a directory and all missing parents.
func (fs *FileSystem) MkdirAll(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	rest, err := cleanPath(p)
	if err != nil {
		return err
	}
	cur := fs.root
	for rest != "" {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		next, ok := cur.children[part]
		if !ok {
			next = &node{name: part, dir: true, children: map[string]*node{}}
			cur.children[part] = next
		}
		if !next.dir {
			return fmt.Errorf("%w: %q", ErrNotDirectory, p)
		}
		cur = next
	}
	return nil
}

// Exists reports whether the path names an existing file or directory.
func (fs *FileSystem) Exists(p string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, err := fs.lookup(p)
	return err == nil
}

// FileInfo describes a namespace entry.
type FileInfo struct {
	Path   string
	Name   string
	Size   int64
	IsDir  bool
	Blocks int
	MTime  uint64
	FileID uint64
}

// Stat returns information about a path.
func (fs *FileSystem) Stat(p string) (FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return FileInfo{}, err
	}
	return fs.infoLocked(path.Clean(p), n), nil
}

func (fs *FileSystem) infoLocked(p string, n *node) FileInfo {
	fi := FileInfo{Path: p, Name: n.name, IsDir: n.dir}
	if n.file != nil {
		fi.Size = n.file.size
		fi.Blocks = len(n.file.blocks)
		fi.MTime = n.file.mtime
		fi.FileID = n.file.fileID
	}
	return fi
}

// List returns the entries of a directory sorted by name.
func (fs *FileSystem) List(dir string) ([]FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(dir)
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, fmt.Errorf("%w: %q", ErrNotDirectory, dir)
	}
	base := path.Clean(dir)
	out := make([]FileInfo, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, fs.infoLocked(path.Join(base, c.name), c))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ListFiles returns only the plain files of a directory.
func (fs *FileSystem) ListFiles(dir string) ([]FileInfo, error) {
	all, err := fs.List(dir)
	if err != nil {
		return nil, err
	}
	files := all[:0]
	for _, fi := range all {
		if !fi.IsDir {
			files = append(files, fi)
		}
	}
	return files, nil
}

// Du returns the total size of all files under p (recursively).
func (fs *FileSystem) Du(p string) (int64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return 0, err
	}
	return duLocked(n), nil
}

func duLocked(n *node) int64 {
	if !n.dir {
		if n.file != nil {
			return n.file.size
		}
		return 0
	}
	var total int64
	for _, c := range n.children {
		total += duLocked(c)
	}
	return total
}

// Delete removes a file, or a directory when recursive is set (or the
// directory is empty).
func (fs *FileSystem) Delete(p string, recursive bool) error {
	if f := fs.inject(OpDelete, p); f != nil {
		return f.Err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	n, ok := parent.children[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, p)
	}
	if n.dir && len(n.children) > 0 && !recursive {
		return fmt.Errorf("%w: %q", ErrNotEmpty, p)
	}
	if n.file != nil && n.file.writing {
		return fmt.Errorf("%w: %q", ErrFileOpen, p)
	}
	fs.releaseTree(n)
	delete(parent.children, name)
	return nil
}

// Pin adds a snapshot reference to a file, deferring any
// DeleteDeferred removal until the matching Unpin. Directories cannot
// be pinned.
func (fs *FileSystem) Pin(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	if n.file == nil {
		return fmt.Errorf("%w: %q", ErrIsDirectory, p)
	}
	n.file.pins++
	return nil
}

// Unpin drops one snapshot reference. When the last pin of a
// condemned file drops, the file is removed and its blocks freed —
// never before, so in-flight snapshot reads always complete.
func (fs *FileSystem) Unpin(p string) error {
	if f := fs.inject(OpUnpin, p); f != nil {
		return f.Err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	n, ok := parent.children[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, p)
	}
	if n.file == nil {
		return fmt.Errorf("%w: %q", ErrIsDirectory, p)
	}
	if n.file.pins <= 0 {
		return fmt.Errorf("%w: %q", ErrNotPinned, p)
	}
	n.file.pins--
	if n.file.pins == 0 && n.file.condemned {
		fs.releaseTree(n)
		delete(parent.children, name)
	}
	return nil
}

// DeleteDeferred removes a file as soon as it has no pins: unpinned
// files are removed immediately, pinned files are condemned and
// removed when the last pin drops. Condemned files remain fully
// readable (and visible to Exists/Stat) until then. This is the
// deletion path for superseded master files after a COMPACT or
// OVERWRITE publishes a new epoch.
func (fs *FileSystem) DeleteDeferred(p string) error {
	if f := fs.inject(OpDelete, p); f != nil {
		return f.Err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	n, ok := parent.children[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, p)
	}
	if n.file == nil {
		return fmt.Errorf("%w: %q", ErrIsDirectory, p)
	}
	if n.file.writing {
		return fmt.Errorf("%w: %q", ErrFileOpen, p)
	}
	if n.file.pins > 0 {
		n.file.condemned = true
		return nil
	}
	fs.releaseTree(n)
	delete(parent.children, name)
	return nil
}

// Pins reports the current pin count of a file (0 for absent paths),
// an observability hook for tests and leak checks.
func (fs *FileSystem) Pins(p string) int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil || n.file == nil {
		return 0
	}
	return n.file.pins
}

// Condemned reports whether the file is awaiting deferred deletion
// (DeleteDeferred ran while it was pinned; it will be removed when the
// last pin drops). False for absent paths and directories — an
// observability hook for DROP/retention tests.
func (fs *FileSystem) Condemned(p string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil || n.file == nil {
		return false
	}
	return n.file.condemned
}

// releaseTree frees the blocks of every file under n. Caller holds fs.mu.
func (fs *FileSystem) releaseTree(n *node) {
	if n.file != nil {
		fs.filesDeleted.Add(1)
		fs.blkMu.Lock()
		for _, id := range n.file.blocks {
			delete(fs.blocks, id)
		}
		fs.blkMu.Unlock()
	}
	for _, c := range n.children {
		fs.releaseTree(c)
	}
}

// Rename atomically moves src to dst. Like HDFS, it fails if dst
// exists; the destination parent directory must exist.
func (fs *FileSystem) Rename(src, dst string) error {
	if f := fs.inject(OpRename, src); f != nil {
		return f.Err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sParent, sName, err := fs.lookupParent(src)
	if err != nil {
		return err
	}
	n, ok := sParent.children[sName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, src)
	}
	if n.file != nil && n.file.writing {
		return fmt.Errorf("%w: %q", ErrFileOpen, src)
	}
	dParent, dName, err := fs.lookupParent(dst)
	if err != nil {
		return err
	}
	if !dParent.dir {
		return fmt.Errorf("%w: %q", ErrNotDirectory, dst)
	}
	if _, exists := dParent.children[dName]; exists {
		return fmt.Errorf("%w: %q", ErrExists, dst)
	}
	// Reject moving a directory into its own subtree.
	if n.dir && isUnderLocked(n, dParent) {
		return fmt.Errorf("%w: cannot move %q into itself", ErrInvalidPath, src)
	}
	delete(sParent.children, sName)
	n.name = dName
	dParent.children[dName] = n
	return nil
}

func isUnderLocked(ancestor, n *node) bool {
	if ancestor == n {
		return true
	}
	for _, c := range ancestor.children {
		if c.dir && isUnderLocked(c, n) {
			return true
		}
	}
	return false
}

// allocBlock creates an empty block. Caller
// must not hold blkMu.
func (fs *FileSystem) allocBlock() blockID {
	fs.blkMu.Lock()
	defer fs.blkMu.Unlock()
	fs.nextID++
	id := blockID(fs.nextID)
	fs.blocks[id] = &block{}
	return id
}

func (fs *FileSystem) getBlock(id blockID) (*block, bool) {
	fs.blkMu.RLock()
	defer fs.blkMu.RUnlock()
	b, ok := fs.blocks[id]
	return b, ok
}

// CorruptBlock flips one byte in the idx-th block of the file, for
// failure-injection tests. The file's checksum is left stale so a
// verifying read detects the corruption.
func (fs *FileSystem) CorruptBlock(p string, idx int) error {
	fs.mu.RLock()
	n, err := fs.lookup(p)
	fs.mu.RUnlock()
	if err != nil {
		return err
	}
	if n.file == nil {
		return fmt.Errorf("%w: %q", ErrIsDirectory, p)
	}
	if idx < 0 || idx >= len(n.file.blocks) {
		return fmt.Errorf("dfs: block index %d out of range", idx)
	}
	b, ok := fs.getBlock(n.file.blocks[idx])
	if !ok || len(b.data) == 0 {
		return fmt.Errorf("dfs: block %d empty", idx)
	}
	b.data[0] ^= 0xFF
	fs.corruptedBlocks.Add(1)
	return nil
}

// Metrics is a snapshot of filesystem counters.
type Metrics struct {
	BytesRead       int64
	BytesWritten    int64
	FilesCreated    int64
	FilesDeleted    int64
	OpensForRead    int64
	BlocksCorrupted int64
	LiveBlocks      int
}

// Metrics returns a snapshot of counters.
func (fs *FileSystem) Metrics() Metrics {
	m := Metrics{
		BytesRead:       fs.bytesRead.Load(),
		BytesWritten:    fs.bytesWritten.Load(),
		FilesCreated:    fs.filesCreated.Load(),
		FilesDeleted:    fs.filesDeleted.Load(),
		OpensForRead:    fs.opensForRead.Load(),
		BlocksCorrupted: fs.corruptedBlocks.Load(),
	}
	fs.blkMu.RLock()
	m.LiveBlocks = len(fs.blocks)
	fs.blkMu.RUnlock()
	return m
}
