package hive

import (
	"fmt"
	"path"
	"strings"
	"sync/atomic"

	"dualtable/internal/datum"
	"dualtable/internal/dfs"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/orcfile"
	"dualtable/internal/sim"
)

// orcHandler stores tables as directories of ORC files on the DFS —
// the plain Hive(HDFS) storage of the paper's experiments.
type orcHandler struct {
	e       *Engine
	fileSeq atomic.Uint64
}

func (h *orcHandler) Create(desc *metastore.TableDesc) error {
	return h.e.FS.MkdirAll(desc.Location)
}

func (h *orcHandler) Drop(desc *metastore.TableDesc) error {
	if h.e.FS.Exists(desc.Location) {
		return h.e.FS.Delete(desc.Location, true)
	}
	return nil
}

func (h *orcHandler) Splits(desc *metastore.TableDesc, opts ScanOptions) ([]mapred.InputSplit, func(), error) {
	infos, err := h.e.FS.ListFiles(desc.Location)
	if err != nil {
		return nil, nil, err
	}
	var splits []mapred.InputSplit
	for _, fi := range infos {
		if strings.HasPrefix(fi.Name, ".") {
			continue
		}
		splits = append(splits, &ORCSplit{FS: h.e.FS, Path: fi.Path, Size: fi.Size, Opts: opts})
	}
	return splits, noRelease, nil
}

func (h *orcHandler) RowCount(desc *metastore.TableDesc) (int64, error) {
	infos, err := h.e.FS.ListFiles(desc.Location)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, fi := range infos {
		if strings.HasPrefix(fi.Name, ".") {
			continue
		}
		r, err := h.e.FS.Open(fi.Path)
		if err != nil {
			return 0, err
		}
		rd, err := orcfile.Open(r, r.Size())
		if err != nil {
			r.Close()
			return 0, err
		}
		total += rd.NumRows()
		r.Close()
	}
	return total, nil
}

func (h *orcHandler) DataSize(desc *metastore.TableDesc) (int64, error) {
	return h.e.FS.Du(desc.Location)
}

func (h *orcHandler) Append(desc *metastore.TableDesc) (mapred.OutputFactory, Committer, error) {
	return &orcOutputFactory{h: h, dir: desc.Location, schema: desc.Schema}, NopCommitter{}, nil
}

func (h *orcHandler) Overwrite(desc *metastore.TableDesc) (mapred.OutputFactory, Committer, error) {
	staging := desc.Location + "/.staging"
	committer, err := StageOverwrite(h.e.FS, desc.Location, staging)
	if err != nil {
		return nil, nil, err
	}
	return &orcOutputFactory{h: h, dir: staging, schema: desc.Schema}, committer, nil
}

// NopCommitter is used by append paths that write in place.
type NopCommitter struct{}

func (NopCommitter) Commit() error { return nil }
func (NopCommitter) Abort() error  { return nil }

// StageOverwrite provisions an empty staging directory and returns the
// committer that atomically replaces dir's files with the staged ones —
// Hive's INSERT OVERWRITE commit.
func StageOverwrite(fs *dfs.FileSystem, dir, staging string) (Committer, error) {
	if fs.Exists(staging) {
		if err := fs.Delete(staging, true); err != nil {
			return nil, err
		}
	}
	if err := fs.MkdirAll(staging); err != nil {
		return nil, err
	}
	return &swapCommitter{fs: fs, dir: dir, staging: staging}, nil
}

type swapCommitter struct {
	fs      *dfs.FileSystem
	dir     string
	staging string
}

func (c *swapCommitter) Commit() error {
	// Delete old files (not the staging subdir), then move staged
	// files in.
	infos, err := c.fs.ListFiles(c.dir)
	if err != nil {
		return err
	}
	for _, fi := range infos {
		if err := c.fs.Delete(fi.Path, false); err != nil {
			return err
		}
	}
	staged, err := c.fs.ListFiles(c.staging)
	if err != nil {
		return err
	}
	for _, fi := range staged {
		if err := c.fs.Rename(fi.Path, path.Join(c.dir, fi.Name)); err != nil {
			return err
		}
	}
	return c.fs.Delete(c.staging, true)
}

func (c *swapCommitter) Abort() error {
	if c.fs.Exists(c.staging) {
		return c.fs.Delete(c.staging, true)
	}
	return nil
}

// orcOutputFactory writes one ORC file per task.
type orcOutputFactory struct {
	h      *orcHandler
	dir    string
	schema datum.Schema
}

func (f *orcOutputFactory) NewCollector(taskID int, m *sim.Meter) (mapred.Collector, error) {
	return &ORCTaskWriter{FS: f.h.e.FS, Schema: f.schema, Meter: m,
		Create: func() (string, uint32, map[string]string, error) {
			name := fmt.Sprintf("part-%05d-%06d.orc", taskID, f.h.fileSeq.Add(1))
			return path.Join(f.dir, name), 0, nil, nil
		}}, nil
}

// ORCTaskWriter collects one task's output into one ORC file, created
// when the first row arrives so empty tasks leave no file behind. It is
// the writer of every ORC-backed storage; the hooks carry what differs
// between them. Rows and column batches alike are consumed inside the
// call: it keeps neither.
type ORCTaskWriter struct {
	FS     *dfs.FileSystem
	Schema datum.Schema
	Meter  *sim.Meter
	// Create names the file. A storage that addresses records by file
	// also returns the file's ID and the user metadata recording it,
	// which go into both the ORC footer and the DFS file metadata.
	Create func() (path string, fileID uint32, meta map[string]string, err error)
	// Finished, when set, runs after the file closed successfully.
	Finished func(path string, rows int64) error

	path string
	fw   *dfs.FileWriter
	w    *orcfile.Writer
}

func (c *ORCTaskWriter) Collect(row datum.Row) error {
	if err := c.start(); err != nil {
		return err
	}
	return c.w.WriteRow(row)
}

func (c *ORCTaskWriter) CollectBatch(b *datum.Batch) (bool, error) {
	if b.Len == 0 {
		return false, nil
	}
	if err := c.start(); err != nil {
		return false, err
	}
	return false, c.w.WriteBatch(b)
}

// start creates the task's file on first use.
func (c *ORCTaskWriter) start() error {
	if c.w != nil {
		return nil
	}
	p, fileID, meta, err := c.Create()
	if err != nil {
		return err
	}
	fw, err := c.FS.CreateMeter(p, c.Meter)
	if err != nil {
		return err
	}
	if meta != nil {
		fw.SetFileID(uint64(fileID))
		for k, v := range meta {
			fw.SetUserMeta(k, v)
		}
	}
	w, err := orcfile.NewWriter(fw, c.Schema, orcfile.WriterOptions{Compression: true, UserMeta: meta})
	if err != nil {
		return err
	}
	c.path, c.fw, c.w = p, fw, w
	return nil
}

func (c *ORCTaskWriter) Close() error {
	if c.w == nil {
		return nil
	}
	if err := c.w.Close(); err != nil {
		return err
	}
	if err := c.fw.Close(); err != nil {
		return err
	}
	if c.Finished == nil {
		return nil
	}
	return c.Finished(c.path, c.w.NumRows())
}

// ---- Text handler ----

// textHandler stores tables as delimited text files (LOAD DATA
// sources and simple fixtures).
type textHandler struct {
	e       *Engine
	fileSeq atomic.Uint64 // numbers the files of every write, so no two share a name
}

func (h *textHandler) Create(desc *metastore.TableDesc) error {
	return h.e.FS.MkdirAll(desc.Location)
}

func (h *textHandler) Drop(desc *metastore.TableDesc) error {
	if h.e.FS.Exists(desc.Location) {
		return h.e.FS.Delete(desc.Location, true)
	}
	return nil
}

func (h *textHandler) Splits(desc *metastore.TableDesc, opts ScanOptions) ([]mapred.InputSplit, func(), error) {
	infos, err := h.e.FS.ListFiles(desc.Location)
	if err != nil {
		return nil, nil, err
	}
	var splits []mapred.InputSplit
	for _, fi := range infos {
		if strings.HasPrefix(fi.Name, ".") {
			continue
		}
		splits = append(splits, &textSplit{
			fs: h.e.FS, path: fi.Path, size: fi.Size,
			schema: desc.Schema,
		})
	}
	return splits, noRelease, nil
}

func (h *textHandler) RowCount(desc *metastore.TableDesc) (int64, error) {
	splits, release, err := h.Splits(desc, ScanOptions{})
	if err != nil {
		return 0, err
	}
	defer release()
	var n int64
	for _, s := range splits {
		rr, err := s.Open(nil)
		if err != nil {
			return 0, err
		}
		for {
			if _, _, err := rr.Next(); err != nil {
				break
			}
			n++
		}
		rr.Close()
	}
	return n, nil
}

func (h *textHandler) DataSize(desc *metastore.TableDesc) (int64, error) {
	return h.e.FS.Du(desc.Location)
}

func (h *textHandler) Append(desc *metastore.TableDesc) (mapred.OutputFactory, Committer, error) {
	return &textOutputFactory{h: h, dir: desc.Location}, NopCommitter{}, nil
}

func (h *textHandler) Overwrite(desc *metastore.TableDesc) (mapred.OutputFactory, Committer, error) {
	staging := desc.Location + "/.staging"
	committer, err := StageOverwrite(h.e.FS, desc.Location, staging)
	if err != nil {
		return nil, nil, err
	}
	return &textOutputFactory{h: h, dir: staging}, committer, nil
}

type textOutputFactory struct {
	h   *textHandler
	dir string
}

func (f *textOutputFactory) NewCollector(taskID int, m *sim.Meter) (mapred.Collector, error) {
	return &textCollector{f: f, taskID: taskID, meter: m}, nil
}

type textCollector struct {
	f      *textOutputFactory
	taskID int
	meter  *sim.Meter
	fw     *dfs.FileWriter
}

func (c *textCollector) Collect(row datum.Row) error {
	if c.fw == nil {
		name := fmt.Sprintf("part-%05d-%06d.txt", c.taskID, c.f.h.fileSeq.Add(1))
		fw, err := c.f.h.e.FS.CreateMeter(path.Join(c.f.dir, name), c.meter)
		if err != nil {
			return err
		}
		c.fw = fw
	}
	fields := make([]string, len(row))
	for i, d := range row {
		if d.IsNull() {
			fields[i] = `\N`
		} else {
			fields[i] = d.String()
		}
	}
	_, err := c.fw.Write([]byte(strings.Join(fields, fieldDelim) + "\n"))
	return err
}

func (c *textCollector) Close() error {
	if c.fw == nil {
		return nil
	}
	return c.fw.Close()
}

type textSplit struct {
	fs     *dfs.FileSystem
	path   string
	size   int64
	schema datum.Schema
}

func (s *textSplit) Length() int64 { return s.size }

func (s *textSplit) Open(m *sim.Meter) (mapred.RecordReader, error) {
	data, err := s.fs.ReadFile(s.path)
	if err != nil {
		return nil, err
	}
	m.DFSRead(int64(len(data)))
	rows, err := parseDelimited(string(data), s.schema)
	if err != nil {
		return nil, fmt.Errorf("hive: %s: %w", s.path, err)
	}
	// The parsed rows are served by a slice reader, which charges
	// nothing: the file read is already charged above.
	return (&mapred.SliceSplit{Rows: rows}).Open(nil)
}
