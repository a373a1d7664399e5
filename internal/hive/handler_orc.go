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
		splits = append(splits, &orcSplit{
			fs:     h.e.FS,
			path:   fi.Path,
			size:   fi.Size,
			schema: desc.Schema,
			opts:   opts,
		})
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
	return &orcOutputFactory{h: h, dir: desc.Location, schema: desc.Schema},
		nopCommitter{}, nil
}

func (h *orcHandler) Overwrite(desc *metastore.TableDesc) (mapred.OutputFactory, Committer, error) {
	staging := desc.Location + "/.staging"
	if h.e.FS.Exists(staging) {
		if err := h.e.FS.Delete(staging, true); err != nil {
			return nil, nil, err
		}
	}
	if err := h.e.FS.MkdirAll(staging); err != nil {
		return nil, nil, err
	}
	factory := &orcOutputFactory{h: h, dir: staging, schema: desc.Schema}
	return factory, &swapCommitter{fs: h.e.FS, dir: desc.Location, staging: staging}, nil
}

// nopCommitter is used by append paths that write in place.
type nopCommitter struct{}

func (nopCommitter) Commit() error { return nil }
func (nopCommitter) Abort() error  { return nil }

// swapCommitter atomically replaces a table directory's files with
// the staging directory's files — Hive's INSERT OVERWRITE commit.
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
	return &orcCollector{f: f, taskID: taskID, meter: m}, nil
}

// orcCollector lazily creates the output file on the first row so
// empty tasks leave no files behind.
type orcCollector struct {
	f      *orcOutputFactory
	taskID int
	meter  *sim.Meter
	fw     *dfs.FileWriter
	w      *orcfile.Writer
}

func (c *orcCollector) Collect(row datum.Row) error {
	if c.w == nil {
		name := fmt.Sprintf("part-%05d-%06d.orc", c.taskID, c.f.h.fileSeq.Add(1))
		fw, err := c.f.h.e.FS.CreateMeter(path.Join(c.f.dir, name), c.meter)
		if err != nil {
			return err
		}
		w, err := orcfile.NewWriter(fw, c.f.schema, orcfile.WriterOptions{Compression: true})
		if err != nil {
			return err
		}
		c.fw, c.w = fw, w
	}
	return c.w.WriteRow(row)
}

func (c *orcCollector) Close() error {
	if c.w == nil {
		return nil
	}
	if err := c.w.Close(); err != nil {
		return err
	}
	return c.fw.Close()
}

// orcSplit reads one ORC file.
type orcSplit struct {
	fs     *dfs.FileSystem
	path   string
	size   int64
	schema datum.Schema
	opts   ScanOptions
	// fileID, when set, seeds record IDs as fileID<<32 | rowNumber
	// (DualTable master files).
	fileID uint64
	useID  bool
}

func (s *orcSplit) Length() int64 { return s.size }

func (s *orcSplit) Open(m *sim.Meter) (mapred.RecordReader, error) {
	fr, err := s.fs.OpenMeter(s.path, m)
	if err != nil {
		return nil, err
	}
	rd, err := orcfile.Open(fr, fr.Size())
	if err != nil {
		fr.Close()
		return nil, err
	}
	rr := rd.NewRowReader(orcfile.RowReaderOptions{
		Columns:   s.opts.Projection,
		SearchArg: s.opts.SArg,
	})
	return &orcRecordReader{fr: fr, rr: rr, fileID: s.fileID, useID: s.useID}, nil
}

type orcRecordReader struct {
	fr     *dfs.FileReader
	rr     *orcfile.RowReader
	fileID uint64
	useID  bool
}

func (r *orcRecordReader) Next() (datum.Row, mapred.RecordMeta, error) {
	row, ord, err := r.rr.Next()
	if err != nil {
		return nil, mapred.RecordMeta{}, err // io.EOF ends the stream
	}
	meta := mapred.RecordMeta{}
	if r.useID {
		meta.RecordID = r.fileID<<32 | uint64(ord)
	}
	return row, meta, nil
}

func (r *orcRecordReader) Close() error { return r.fr.Close() }

// NewORCSplit builds a split over one ORC file with explicit record
// ID seeding. Exported for the DualTable core's master-table scans.
func NewORCSplit(fs *dfs.FileSystem, filePath string, size int64, schema datum.Schema, opts ScanOptions, fileID uint64) mapred.InputSplit {
	return &orcSplit{fs: fs, path: filePath, size: size, schema: schema, opts: opts, fileID: fileID, useID: true}
}

// ---- Text handler ----

// textHandler stores tables as delimited text files (LOAD DATA
// sources and simple fixtures).
type textHandler struct {
	e *Engine
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

func (h *textHandler) delim(desc *metastore.TableDesc) string {
	if d := desc.Properties["field.delim"]; d != "" {
		return d
	}
	return "|"
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
			schema: desc.Schema, delim: h.delim(desc),
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
	return &textOutputFactory{h: h, dir: desc.Location, delim: h.delim(desc)}, nopCommitter{}, nil
}

func (h *textHandler) Overwrite(desc *metastore.TableDesc) (mapred.OutputFactory, Committer, error) {
	staging := desc.Location + "/.staging"
	if h.e.FS.Exists(staging) {
		if err := h.e.FS.Delete(staging, true); err != nil {
			return nil, nil, err
		}
	}
	if err := h.e.FS.MkdirAll(staging); err != nil {
		return nil, nil, err
	}
	return &textOutputFactory{h: h, dir: staging, delim: h.delim(desc)},
		&swapCommitter{fs: h.e.FS, dir: desc.Location, staging: staging}, nil
}

type textOutputFactory struct {
	h     *textHandler
	dir   string
	delim string
	seq   atomic.Uint64
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
		name := fmt.Sprintf("part-%05d-%06d.txt", c.taskID, c.f.seq.Add(1))
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
	_, err := c.fw.Write([]byte(strings.Join(fields, c.f.delim) + "\n"))
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
	delim  string
}

func (s *textSplit) Length() int64 { return s.size }

func (s *textSplit) Open(m *sim.Meter) (mapred.RecordReader, error) {
	data, err := s.fs.ReadFile(s.path)
	if err != nil {
		return nil, err
	}
	m.DFSRead(int64(len(data)))
	rows, err := parseDelimited(string(data), s.delim, s.schema)
	if err != nil {
		return nil, fmt.Errorf("hive: %s: %w", s.path, err)
	}
	// The parsed rows are served zero-copy; the file read is already
	// charged above.
	return (&mapred.SliceSplit{Rows: rows}).Open(nil)
}
