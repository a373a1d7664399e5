package kvstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"dualtable/internal/dfs"
)

// wal is the write-ahead log of one region store, kept on the
// distributed file system like HBase's HLog. Each record is one
// atomic batch of cells:
//
//	uvarint(payloadLen) payload crc32(payload, 4 bytes LE)
//	payload: uvarint(cellCount) cell*
//
// Replay tolerates a truncated or corrupt tail (the batch being
// written during a crash) by stopping at the first bad record.
type wal struct {
	fs   *dfs.FileSystem
	path string

	// mu serializes use of the log file: parallel map tasks (EDIT
	// sinks) put to one region store concurrently, and a flush
	// truncates under them.
	mu sync.Mutex
	w  *dfs.FileWriter
}

func openWAL(fs *dfs.FileSystem, path string) (*wal, []Cell, error) {
	var recovered []Cell
	if fs.Exists(path) {
		// The previous owner may have died without closing the log;
		// reclaim it the way HBase reclaims a dead region server's
		// HLog via HDFS lease recovery.
		if err := fs.RecoverLease(path); err != nil {
			return nil, nil, fmt.Errorf("kvstore: recover wal lease %s: %w", path, err)
		}
		data, err := fs.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("kvstore: read wal %s: %w", path, err)
		}
		recovered = replayWAL(data)
		if err := fs.Delete(path, false); err != nil {
			return nil, nil, err
		}
	}
	w, err := fs.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("kvstore: create wal %s: %w", path, err)
	}
	l := &wal{fs: fs, path: path, w: w}
	// Re-log recovered cells so the fresh WAL covers them until the
	// next flush.
	if len(recovered) > 0 {
		ptrs := make([]*Cell, len(recovered))
		for i := range recovered {
			ptrs[i] = &recovered[i]
		}
		if err := l.Append(ptrs); err != nil {
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
			c, consumed, err := decodeCell(payload[p:])
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

// Truncate discards the log after a successful memtable flush.
func (l *wal) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Close(); err != nil {
		return err
	}
	if err := l.fs.Delete(l.path, false); err != nil {
		return err
	}
	w, err := l.fs.Create(l.path)
	if err != nil {
		return err
	}
	l.w = w
	return nil
}

// Close closes the log file.
func (l *wal) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Close()
}
