package kvstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path"
	"slices"
	"strconv"
	"strings"
	"sync"

	"dualtable/internal/dfs"
)

// wal is one segment of a table store's write-ahead log, kept on the
// distributed file system like HBase's HLog. A flush seals the open
// segment and opens the next together with its memtable swap, and
// deletes the sealed segment only once the flushed store file is
// installed, so every acknowledged batch is always in a live segment
// or in a store file. Each record is one atomic batch of cells:
//
//	uvarint(payloadLen) payload crc32(payload, 4 bytes LE)
//	payload: uvarint(cellCount) cell*
//
// Replay tolerates a truncated or corrupt tail (the batch being
// written during a crash) by stopping at the first bad record.
type wal struct {
	fs  *dfs.FileSystem
	dir string
	seg uint64

	// mu serializes use of the log file: parallel map tasks (EDIT
	// sinks) put to one store concurrently.
	mu sync.Mutex
	w  *dfs.FileWriter
}

// walPrefix names a store directory's log segments, numbered in order.
const walPrefix = "wal-"

func walPath(dir string, seg uint64) string {
	return path.Join(dir, fmt.Sprintf("%s%06d", walPrefix, seg))
}

// createWAL opens a fresh segment seg of dir's log.
func createWAL(fs *dfs.FileSystem, dir string, seg uint64) (*wal, error) {
	p := walPath(dir, seg)
	w, err := fs.Create(p)
	if err != nil {
		return nil, fmt.Errorf("kvstore: create wal %s: %w", p, err)
	}
	return &wal{fs: fs, dir: dir, seg: seg, w: w}, nil
}

// openWAL recovers the log of the store in dir. It replays every
// segment in order, re-logs the recovered cells into a fresh segment,
// and only then deletes the replayed segments, so a crash during
// recovery loses nothing.
func openWAL(fs *dfs.FileSystem, dir string) (*wal, []Cell, error) {
	infos, err := fs.ListFiles(dir)
	if err != nil {
		return nil, nil, err
	}
	var segs []uint64
	for _, fi := range infos {
		if n, ok := strings.CutPrefix(fi.Name, walPrefix); ok {
			seg, err := strconv.ParseUint(n, 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("kvstore: bad wal segment %s", fi.Path)
			}
			segs = append(segs, seg)
		}
	}
	slices.Sort(segs)
	var recovered []Cell
	for _, seg := range segs {
		p := walPath(dir, seg)
		// The previous owner may have died without closing the log;
		// reclaim it the way HBase reclaims a dead region server's
		// HLog via HDFS lease recovery.
		if err := fs.RecoverLease(p); err != nil {
			return nil, nil, fmt.Errorf("kvstore: recover wal lease %s: %w", p, err)
		}
		data, err := fs.ReadFile(p)
		if err != nil {
			return nil, nil, fmt.Errorf("kvstore: read wal %s: %w", p, err)
		}
		recovered = append(recovered, replayWAL(data)...)
	}
	next := uint64(1)
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	l, err := createWAL(fs, dir, next)
	if err != nil {
		return nil, nil, err
	}
	if len(recovered) > 0 {
		ptrs := make([]*Cell, len(recovered))
		for i := range recovered {
			ptrs[i] = &recovered[i]
		}
		if err := l.Append(ptrs); err != nil {
			return nil, nil, err
		}
	}
	for _, seg := range segs {
		if err := fs.Delete(walPath(dir, seg), false); err != nil {
			return nil, nil, err
		}
	}
	return l, recovered, nil
}

// replayWAL decodes every complete, checksum-valid record.
func replayWAL(data []byte) []Cell {
	var out []Cell
	off := 0
	for off < len(data) {
		plen, n := binary.Uvarint(data[off:])
		if n <= 0 {
			break
		}
		start := off + n
		end := start + int(plen)
		if end+4 > len(data) || end < start {
			break // truncated tail
		}
		payload := data[start:end]
		want := binary.LittleEndian.Uint32(data[end : end+4])
		if crc32.ChecksumIEEE(payload) != want {
			break // corrupt tail
		}
		cnt, cn := binary.Uvarint(payload)
		if cn <= 0 {
			break
		}
		p := cn
		ok := true
		batch := make([]Cell, 0, cnt)
		for i := uint64(0); i < cnt; i++ {
			c, consumed, err := decodeCell(payload[p:], "")
			if err != nil {
				ok = false
				break
			}
			batch = append(batch, c.Clone())
			p += consumed
		}
		if !ok {
			break
		}
		out = append(out, batch...)
		off = end + 4
	}
	return out
}

// Append durably logs one batch of cells.
func (l *wal) Append(cells []*Cell) error {
	payload := binary.AppendUvarint(nil, uint64(len(cells)))
	for _, c := range cells {
		payload = appendCell(payload, c)
	}
	rec := binary.AppendUvarint(nil, uint64(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.w.Write(rec)
	return err
}

// rotate opens the next segment and seals this one: every record
// appended before the call is in this segment, every later one goes to
// the segment it returns. Callers exclude appends while it runs.
func (l *wal) rotate() (*wal, error) {
	next, err := createWAL(l.fs, l.dir, l.seg+1)
	if err != nil {
		return nil, err
	}
	// Close fails only on a writer a torn append already killed; the
	// prefix it persisted is durable, and remove recovers its lease.
	_ = l.Close()
	return next, nil
}

// remove deletes a sealed segment once every cell it logged is in an
// installed store file.
func (l *wal) remove() error {
	p := walPath(l.dir, l.seg)
	if err := l.fs.RecoverLease(p); err != nil {
		return err
	}
	return l.fs.Delete(p, false)
}

// Close closes the log file.
func (l *wal) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Close()
}
