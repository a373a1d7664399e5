package dfs

import (
	"fmt"
	"hash/crc32"
	"io"
	"path"

	"dualtable/internal/sim"
)

// FileWriter streams data into a file. Files are write-once: after
// Close the file is immutable except through Append, which resumes at
// the tail. A single writer per file is enforced.
type FileWriter struct {
	fs     *FileSystem
	meta   *fileMeta
	meter  *sim.Meter
	path   string
	closed bool
	// tail is the currently open (unsealed) block, if any.
	tail blockID
	has  bool
}

// Create creates a new file for writing; parent directories must
// exist. It fails if the path exists.
func (fs *FileSystem) Create(p string) (*FileWriter, error) {
	return fs.CreateMeter(p, nil)
}

// CreateMeter is Create with simulated-cost accounting on m.
func (fs *FileSystem) CreateMeter(p string, m *sim.Meter) (*FileWriter, error) {
	if f := fs.inject(OpCreate, p); f != nil {
		return nil, f.Err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, err := fs.lookupParent(p)
	if err != nil {
		return nil, err
	}
	if !parent.dir {
		return nil, fmt.Errorf("%w: %q", ErrNotDirectory, p)
	}
	if _, ok := parent.children[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, p)
	}
	meta := &fileMeta{writing: true, mtime: fs.tick(), userMeta: map[string]string{}}
	parent.children[name] = &node{name: name, file: meta}
	fs.filesCreated.Add(1)
	m.DFSOpen()
	return &FileWriter{fs: fs, meta: meta, meter: m, path: path.Clean(p)}, nil
}

// Append reopens an existing file for appending at its tail,
// mirroring HDFS append semantics (the FEP cluster's bulk-append path
// in the paper's Figure 1).
func (fs *FileSystem) Append(p string) (*FileWriter, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if n.file == nil {
		return nil, fmt.Errorf("%w: %q", ErrIsDirectory, p)
	}
	if n.file.writing {
		return nil, fmt.Errorf("%w: %q", ErrFileOpen, p)
	}
	n.file.writing = true
	n.file.mtime = fs.tick()
	w := &FileWriter{fs: fs, meta: n.file, path: path.Clean(p)}
	// Resume the last block if it has room.
	if len(n.file.blocks) > 0 {
		last := n.file.blocks[len(n.file.blocks)-1]
		if b, ok := fs.getBlock(last); ok && int64(len(b.data)) < fs.cfg.BlockSize {
			b.sealed = false
			w.tail, w.has = last, true
		}
	}
	return w, nil
}

// Write appends p to the file, spilling into new blocks at BlockSize
// boundaries. It never fails short except after Close or under an
// injected fault.
func (w *FileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, ErrClosed
	}
	if f := w.fs.inject(OpWrite, w.path); f != nil {
		// A torn write persists a prefix before the pipeline dies.
		n := 0
		if f.TearBytes > 0 {
			tear := f.TearBytes
			if tear > len(p) {
				tear = len(p)
			}
			n, _ = w.write(p[:tear])
		}
		// The simulated client is dead: poison the handle but leave the
		// lease held (meta.writing stays true), as after a real crash.
		// Cleanup must RecoverLease before the file can be deleted.
		w.closed = true
		return n, f.Err
	}
	return w.write(p)
}

func (w *FileWriter) write(p []byte) (int, error) {
	w.fs.mu.RLock()
	fenced := !w.meta.writing
	w.fs.mu.RUnlock()
	if fenced {
		// Lease was recovered by another client; this handle is dead.
		w.closed = true
		return 0, ErrClosed
	}
	total := len(p)
	for len(p) > 0 {
		if !w.has {
			w.tail = w.fs.allocBlock()
			w.has = true
		}
		b, ok := w.fs.getBlock(w.tail)
		if !ok {
			return total - len(p), fmt.Errorf("dfs: lost block %d", w.tail)
		}
		room := w.fs.cfg.BlockSize - int64(len(b.data))
		if room <= 0 {
			w.sealTail(b)
			w.has = false
			continue
		}
		n := int64(len(p))
		if n > room {
			n = room
		}
		if len(b.data) == 0 {
			// First bytes into this block: register it with the file.
			w.fs.mu.Lock()
			w.meta.blocks = append(w.meta.blocks, w.tail)
			w.fs.mu.Unlock()
		}
		b.data = append(b.data, p[:n]...)
		w.fs.mu.Lock()
		w.meta.size += n
		w.fs.mu.Unlock()
		w.fs.bytesWritten.Add(n)
		w.meter.DFSWrite(n)
		p = p[n:]
	}
	return total, nil
}

func (w *FileWriter) sealTail(b *block) {
	b.crc = crc32.ChecksumIEEE(b.data)
	b.sealed = true
}

// Close seals the file; it becomes immutable and readable.
func (w *FileWriter) Close() error {
	if w.closed {
		return ErrClosed
	}
	w.closed = true
	if w.has {
		if b, ok := w.fs.getBlock(w.tail); ok {
			w.sealTail(b)
		}
	}
	w.fs.mu.Lock()
	w.meta.writing = false
	w.meta.mtime = w.fs.tick()
	w.fs.mu.Unlock()
	return nil
}

// SetFileID records an application-level file ID in the file metadata
// (DualTable stores the master-table file ID here, paper §V-B).
func (w *FileWriter) SetFileID(id uint64) {
	w.fs.mu.Lock()
	w.meta.fileID = id
	w.fs.mu.Unlock()
}

// SetUserMeta records a key/value pair in the file's user metadata.
func (w *FileWriter) SetUserMeta(key, value string) {
	w.fs.mu.Lock()
	w.meta.userMeta[key] = value
	w.fs.mu.Unlock()
}

// FileReader reads a file. It implements io.Reader, io.ReaderAt,
// io.Seeker and io.Closer. Readers see the file as of open time
// (files are immutable once closed, so no snapshotting is needed).
type FileReader struct {
	fs     *FileSystem
	blocks []blockID
	size   int64
	off    int64
	meter  *sim.Meter
	verify bool
	closed bool
}

// Open opens a file for reading. It fails while a writer is active.
func (fs *FileSystem) Open(p string) (*FileReader, error) {
	return fs.OpenMeter(p, nil)
}

// OpenMeter is Open with simulated-cost accounting on m.
func (fs *FileSystem) OpenMeter(p string, m *sim.Meter) (*FileReader, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if n.file == nil {
		return nil, fmt.Errorf("%w: %q", ErrIsDirectory, p)
	}
	if n.file.writing {
		return nil, fmt.Errorf("%w: %q", ErrFileOpen, p)
	}
	fs.opensForRead.Add(1)
	m.DFSOpen()
	blocks := append([]blockID(nil), n.file.blocks...)
	return &FileReader{fs: fs, blocks: blocks, size: n.file.size, meter: m, verify: fs.cfg.VerifyOnRead}, nil
}

// Size returns the file length.
func (r *FileReader) Size() int64 { return r.size }

// Read implements io.Reader.
func (r *FileReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, ErrClosed
	}
	if r.off >= r.size {
		return 0, io.EOF
	}
	n, err := r.ReadAt(p, r.off)
	r.off += int64(n)
	return n, err
}

// ReadAt implements io.ReaderAt.
func (r *FileReader) ReadAt(p []byte, off int64) (int, error) {
	if r.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset", ErrInvalidPath)
	}
	if off >= r.size {
		return 0, io.EOF
	}
	want := int64(len(p))
	if off+want > r.size {
		want = r.size - off
	}
	bs := r.fs.cfg.BlockSize
	var done int64
	for done < want {
		cur := off + done
		bi := int(cur / bs)
		bo := cur % bs
		if bi >= len(r.blocks) {
			break
		}
		b, ok := r.fs.getBlock(r.blocks[bi])
		if !ok {
			return int(done), fmt.Errorf("dfs: missing block %d", r.blocks[bi])
		}
		if r.verify && b.sealed && crc32.ChecksumIEEE(b.data) != b.crc {
			return int(done), fmt.Errorf("%w: block %d", ErrCorruptBlock, bi)
		}
		if bo >= int64(len(b.data)) {
			break
		}
		n := copy(p[done:want], b.data[bo:])
		done += int64(n)
	}
	r.fs.bytesRead.Add(done)
	r.meter.DFSRead(done)
	if done < int64(len(p)) {
		return int(done), io.EOF
	}
	return int(done), nil
}

// Seek implements io.Seeker.
func (r *FileReader) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = r.off + offset
	case io.SeekEnd:
		abs = r.size + offset
	default:
		return 0, fmt.Errorf("dfs: bad whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("dfs: negative seek position %d", abs)
	}
	r.off = abs
	return abs, nil
}

// Close releases the handle.
func (r *FileReader) Close() error {
	if r.closed {
		return ErrClosed
	}
	r.closed = true
	return nil
}

// RecoverLease force-closes a file left open by a crashed writer,
// sealing its tail block — the analog of HDFS lease recovery, which
// HBase uses to reclaim the WAL of a dead region server. Any surviving
// writer handle is fenced: its subsequent writes fail.
func (fs *FileSystem) RecoverLease(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(p)
	if err != nil {
		return err
	}
	if n.file == nil {
		return fmt.Errorf("%w: %q", ErrIsDirectory, p)
	}
	if !n.file.writing {
		return nil
	}
	n.file.writing = false
	n.file.mtime = fs.tick()
	if len(n.file.blocks) > 0 {
		if b, ok := fs.getBlock(n.file.blocks[len(n.file.blocks)-1]); ok && !b.sealed {
			b.crc = crc32.ChecksumIEEE(b.data)
			b.sealed = true
		}
	}
	return nil
}

// VerifyChecksums scans every sealed block of the file and reports the
// first checksum mismatch (nil if clean).
func (fs *FileSystem) VerifyChecksums(p string) error {
	fs.mu.RLock()
	n, err := fs.lookup(p)
	fs.mu.RUnlock()
	if err != nil {
		return err
	}
	if n.file == nil {
		return fmt.Errorf("%w: %q", ErrIsDirectory, p)
	}
	for i, id := range n.file.blocks {
		b, ok := fs.getBlock(id)
		if !ok {
			return fmt.Errorf("dfs: missing block %d", id)
		}
		if b.sealed && crc32.ChecksumIEEE(b.data) != b.crc {
			return fmt.Errorf("%w: %s block %d", ErrCorruptBlock, p, i)
		}
	}
	return nil
}

// WriteFile creates p with the given contents (parents must exist).
func (fs *FileSystem) WriteFile(p string, data []byte) error {
	w, err := fs.Create(p)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// ReadFile returns the whole contents of p.
func (fs *FileSystem) ReadFile(p string) ([]byte, error) {
	r, err := fs.Open(p)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	buf := make([]byte, r.Size())
	if _, err := io.ReadFull(r, buf); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	return buf, nil
}

// UserMeta returns a copy of the file's user metadata and its file ID.
func (fs *FileSystem) UserMeta(p string) (map[string]string, uint64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return nil, 0, err
	}
	if n.file == nil {
		return nil, 0, fmt.Errorf("%w: %q", ErrIsDirectory, p)
	}
	out := make(map[string]string, len(n.file.userMeta))
	for k, v := range n.file.userMeta {
		out[k] = v
	}
	return out, n.file.fileID, nil
}

// Walk visits every file under root (depth-first, sorted), calling fn
// with each file's info.
func (fs *FileSystem) Walk(root string, fn func(FileInfo) error) error {
	infos, err := fs.List(root)
	if err != nil {
		return err
	}
	for _, fi := range infos {
		if fi.IsDir {
			if err := fs.Walk(path.Join(root, fi.Name), fn); err != nil {
				return err
			}
			continue
		}
		if err := fn(fi); err != nil {
			return err
		}
	}
	return nil
}
