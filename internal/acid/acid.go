// Package acid implements a Hive-ACID-style storage handler (the
// HIVE-5317 design the paper compares against conceptually in §V-C):
// base ORC files plus one delta file per transaction, all on the
// distributed file system. The differences from DualTable that the
// paper calls out are faithfully reproduced:
//
//   - the whole updated record goes into the delta, "even if only one
//     cell is changed";
//   - each transaction creates a new delta, so readers merge-sort the
//     base with a growing pile of deltas — sequential scans, no random
//     access;
//   - there is no run-time plan selection: DML always writes deltas.
//
// Minor compaction merges all deltas into one; major compaction folds
// them into a new base. Registered as STORED AS ACID so the ablation
// benchmarks can compare it with DualTable on the same workloads.
package acid

import (
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dualtable/internal/datum"
	"dualtable/internal/dfs"
	"dualtable/internal/hive"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/orcfile"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

const (
	fileIDMetaKey = "acid.fileid"
	opUpsert      = int64(0)
	opDelete      = int64(1)
)

// Handler implements hive.StorageHandler + DMLHandler + Compactor.
type Handler struct {
	e *hive.Engine

	mu      sync.Mutex
	nextTxn map[string]int // per-table transaction counter
	nextFid map[string]uint32
}

// Register installs the handler for metastore.StorageAcid.
func Register(e *hive.Engine) (*Handler, error) {
	h := &Handler{e: e, nextTxn: map[string]int{}, nextFid: map[string]uint32{}}
	e.RegisterHandler(metastore.StorageAcid, h)
	return h, nil
}

func baseDir(desc *metastore.TableDesc) string  { return path.Join(desc.Location, "base") }
func deltaDir(desc *metastore.TableDesc) string { return path.Join(desc.Location, "deltas") }

// deltaSchema prefixes the table schema with (rid, op).
func deltaSchema(desc *metastore.TableDesc) datum.Schema {
	s := datum.Schema{{Name: "__rid", Kind: datum.KindInt}, {Name: "__op", Kind: datum.KindInt}}
	return append(s, desc.Schema...)
}

// Create provisions base and delta directories.
func (h *Handler) Create(desc *metastore.TableDesc) error {
	if err := h.e.FS.MkdirAll(baseDir(desc)); err != nil {
		return err
	}
	return h.e.FS.MkdirAll(deltaDir(desc))
}

// Drop removes everything.
func (h *Handler) Drop(desc *metastore.TableDesc) error {
	if h.e.FS.Exists(desc.Location) {
		return h.e.FS.Delete(desc.Location, true)
	}
	return nil
}

func (h *Handler) allocFid(desc *metastore.TableDesc) uint32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	key := strings.ToLower(desc.Name)
	h.nextFid[key]++
	return h.nextFid[key]
}

func (h *Handler) allocTxn(desc *metastore.TableDesc) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	key := strings.ToLower(desc.Name)
	h.nextTxn[key]++
	return h.nextTxn[key]
}

// baseFiles opens the base file footers.
type baseFile struct {
	path   string
	size   int64
	fileID uint32
	rows   int64
}

func (h *Handler) baseFiles(desc *metastore.TableDesc) ([]baseFile, error) {
	infos, err := h.e.FS.ListFiles(baseDir(desc))
	if err != nil {
		return nil, err
	}
	var out []baseFile
	for _, fi := range infos {
		if strings.HasPrefix(fi.Name, ".") {
			continue
		}
		fr, err := h.e.FS.Open(fi.Path)
		if err != nil {
			return nil, err
		}
		rd, err := orcfile.Open(fr, fr.Size())
		if err != nil {
			fr.Close()
			return nil, err
		}
		fr.Close()
		// The file ID prefixes every record ID of the file; defaulting a
		// missing one would let two files share a range and cross-apply
		// each other's deltas.
		fid, err := strconv.ParseUint(rd.UserMeta()[fileIDMetaKey], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("acid: base file %s: bad %s %q: %w", fi.Path, fileIDMetaKey, rd.UserMeta()[fileIDMetaKey], err)
		}
		out = append(out, baseFile{path: fi.Path, size: fi.Size, fileID: uint32(fid), rows: rd.NumRows()})
	}
	return out, nil
}

// loadOverlay reads every listed delta file (the merge-on-read cost
// Hive ACID pays: no random access, so each split scans them all),
// charging the meter, and folds the records of one base file into a scan
// overlay. infos is in transaction order; the last transaction to touch
// a record wins.
func (h *Handler) loadOverlay(infos []dfs.FileInfo, fileID uint32, m *sim.Meter) (*hive.Overlay, error) {
	b := hive.NewOverlayBuilder()
	defer b.Release()
	b.File()
	for _, fi := range infos {
		fr, err := h.e.FS.OpenMeter(fi.Path, m)
		if err != nil {
			return nil, err
		}
		rd, err := orcfile.Open(fr, fr.Size())
		if err != nil {
			fr.Close()
			return nil, err
		}
		br := rd.NewBatchReader(orcfile.RowReaderOptions{})
		cols := br.Vectors()
		for {
			n, _, err := br.NextBatch(cols, 0)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				br.Close()
				fr.Close()
				return nil, fmt.Errorf("acid: read delta %s: %w", fi.Path, err)
			}
			rids, ops := cols[0].Ints, cols[1].Ints
			for i := 0; i < n; i++ {
				rid := uint64(rids[i])
				if uint32(rid>>32) != fileID {
					continue
				}
				// The builder keeps the last record of an ordinal, and
				// the deltas come in transaction order.
				b.Record(uint32(rid))
				if ops[i] == opDelete {
					b.Delete()
					continue
				}
				for c := 2; c < len(cols); c++ { // the delta carries the whole record
					b.Set(c-2, cols[c].Datum(i))
				}
			}
		}
		br.Close()
		fr.Close()
	}
	if overlays := b.Finish(); len(overlays) > 0 {
		return &overlays[0], nil
	}
	return nil, nil
}

// DeltaFileCount reports the number of delta files (observability).
func (h *Handler) DeltaFileCount(desc *metastore.TableDesc) (int, error) {
	infos, err := h.e.FS.ListFiles(deltaDir(desc))
	if err != nil {
		return 0, err
	}
	return len(infos), nil
}

// Splits returns one merge-on-read split per base file. Every split
// re-reads all deltas — exactly the amplification §V-C describes.
func (h *Handler) Splits(desc *metastore.TableDesc, opts hive.ScanOptions) ([]mapred.InputSplit, func(), error) {
	files, err := h.baseFiles(desc)
	if err != nil {
		return nil, nil, err
	}
	// The delta set is fixed here, not when a task opens its split: a
	// DML job scanning these splits must not read the delta files its
	// own tasks are writing.
	deltas, err := h.e.FS.ListFiles(deltaDir(desc))
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	var splits []mapred.InputSplit
	for _, f := range files {
		splits = append(splits, &hive.ORCSplit{
			FS: h.e.FS, Path: f.path, Size: f.size, FileID: f.fileID,
			// Projection only: stripes are never pruned by statistics.
			Opts: hive.ScanOptions{Projection: opts.Projection},
			LoadOverlay: func(m *sim.Meter) (*hive.Overlay, error) {
				return h.loadOverlay(deltas, f.fileID, m)
			},
		})
	}
	return splits, func() {}, nil // nothing is pinned
}

// RowCount sums base-file rows.
func (h *Handler) RowCount(desc *metastore.TableDesc) (int64, error) {
	files, err := h.baseFiles(desc)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, f := range files {
		n += f.rows
	}
	return n, nil
}

// DataSize reports the base + delta byte size.
func (h *Handler) DataSize(desc *metastore.TableDesc) (int64, error) {
	return h.e.FS.Du(desc.Location)
}

// Append writes new base files.
func (h *Handler) Append(desc *metastore.TableDesc) (mapred.OutputFactory, hive.Committer, error) {
	return &baseOutputFactory{h: h, desc: desc, dir: baseDir(desc)}, hive.NopCommitter{}, nil
}

// Overwrite replaces base and clears deltas on commit.
func (h *Handler) Overwrite(desc *metastore.TableDesc) (mapred.OutputFactory, hive.Committer, error) {
	staging := path.Join(desc.Location, ".staging")
	swap, err := hive.StageOverwrite(h.e.FS, baseDir(desc), staging)
	if err != nil {
		return nil, nil, err
	}
	return &baseOutputFactory{h: h, desc: desc, dir: staging},
		&overwriteCommitter{Committer: swap, fs: h.e.FS, deltas: deltaDir(desc)}, nil
}

// overwriteCommitter swaps the staged base in, then clears the deltas
// the new base already contains.
type overwriteCommitter struct {
	hive.Committer
	fs     *dfs.FileSystem
	deltas string
}

func (c *overwriteCommitter) Commit() error {
	if err := c.Committer.Commit(); err != nil {
		return err
	}
	if err := c.fs.Delete(c.deltas, true); err != nil {
		return err
	}
	return c.fs.MkdirAll(c.deltas)
}

// baseOutputFactory writes ORC base files with file IDs.
type baseOutputFactory struct {
	h    *Handler
	desc *metastore.TableDesc
	dir  string
}

func (f *baseOutputFactory) NewCollector(taskID int, m *sim.Meter) (mapred.Collector, error) {
	return &hive.ORCTaskWriter{FS: f.h.e.FS, Schema: f.desc.Schema, Meter: m,
		Create: func() (string, uint32, map[string]string, error) {
			fid := f.h.allocFid(f.desc)
			return path.Join(f.dir, fmt.Sprintf("base-%08d.orc", fid)), fid,
				map[string]string{fileIDMetaKey: fmt.Sprintf("%d", fid)}, nil
		}}, nil
}

// ---- DML: always delta (no cost model — §V-C: "Hive always updates
// the delta tables. It could not make better decisions at runtime.")

// ExecUpdate writes full updated records into a fresh delta.
func (h *Handler) ExecUpdate(ec *hive.ExecContext, e *hive.Engine, desc *metastore.TableDesc, stmt *sqlparser.UpdateStmt, l *sim.Ledger) (int64, string, error) {
	return h.runDeltaJob(ec, e, desc, stmt, l)
}

// ExecDelete writes delete records into a fresh delta.
func (h *Handler) ExecDelete(ec *hive.ExecContext, e *hive.Engine, desc *metastore.TableDesc, stmt *sqlparser.DeleteStmt, l *sim.Ledger) (int64, string, error) {
	return h.runDeltaJob(ec, e, desc, stmt, l)
}

// runDeltaJob scans the table (merge-on-read) and streams matching
// records into one new delta file per map task, under one transaction.
func (h *Handler) runDeltaJob(ec *hive.ExecContext, e *hive.Engine, desc *metastore.TableDesc, stmt sqlparser.Statement, l *sim.Ledger) (int64, string, error) {
	splits, release, err := h.Splits(desc, hive.ScanOptions{})
	if err != nil {
		return 0, "", err
	}
	defer release()
	txn := h.allocTxn(desc)
	dSchema := deltaSchema(desc)
	var taskCounter atomic.Int64
	n, err := e.RunDMLScan(ec, desc, stmt, "acid-delta", splits, l, func(setCols []int) hive.DMLSink {
		return &deltaSink{setCols: setCols, open: func(tm *sim.Meter) (*orcfile.Writer, *dfs.FileWriter, error) {
			name := fmt.Sprintf("delta-%06d-%04d.orc", txn, taskCounter.Add(1))
			fw, err := h.e.FS.CreateMeter(path.Join(deltaDir(desc), name), tm)
			if err != nil {
				return nil, nil, err
			}
			w, err := orcfile.NewWriter(fw, dSchema, orcfile.WriterOptions{Compression: true})
			if err != nil {
				return nil, nil, err
			}
			return w, fw, nil
		}}
	})
	return n, "DELTA", err
}

// deltaSink writes its task's matching records to a delta file opened
// at the first match. Every matched record is affected.
type deltaSink struct {
	setCols []int // nil = DELETE
	open    func(*sim.Meter) (*orcfile.Writer, *dfs.FileWriter, error)
	w       *orcfile.Writer
	fw      *dfs.FileWriter
	out     datum.Row // (rid, op, record...) scratch; WriteRow copies out of it
}

func (s *deltaSink) Apply(tm *sim.Meter, recordID uint64, row datum.Row, vals []datum.Datum) (bool, error) {
	if s.w == nil {
		w, fw, err := s.open(tm)
		if err != nil {
			return false, err
		}
		s.w, s.fw = w, fw
	}
	if s.setCols == nil {
		s.out = append(s.out[:0], datum.Int(int64(recordID)), datum.Int(opDelete))
		for range row {
			s.out = append(s.out, datum.Null)
		}
	} else {
		// The whole record goes into the delta, even for a one-cell
		// change.
		s.out = append(s.out[:0], datum.Int(int64(recordID)), datum.Int(opUpsert))
		s.out = append(s.out, row...)
		for k, nv := range vals {
			s.out[2+s.setCols[k]] = nv
		}
	}
	return true, s.w.WriteRow(s.out)
}

func (s *deltaSink) Flush(*sim.Meter) error {
	if s.w == nil {
		return nil
	}
	if err := s.w.Close(); err != nil {
		return err
	}
	return s.fw.Close()
}

// Compact implements COMPACT TABLE for ACID tables: a major
// compaction folding all deltas into a new base, cancellable between
// records via the execution context.
func (h *Handler) Compact(ec *hive.ExecContext, e *hive.Engine, desc *metastore.TableDesc, l *sim.Ledger) error {
	if err := ec.Err(); err != nil {
		return err
	}
	splits, release, err := h.Splits(desc, hive.ScanOptions{})
	if err != nil {
		return err
	}
	defer release()
	factory, committer, err := h.Overwrite(desc)
	if err != nil {
		return err
	}
	job := &mapred.Job{
		Name:   "acid-major-compact",
		Splits: splits,
		NewMapper: func() mapred.Mapper {
			return mapred.MapFunc(func(row datum.Row, _ mapred.RecordMeta, emit mapred.Emitter) error {
				return emit(nil, row)
			})
		},
		Output: factory,
	}
	res, err := e.MR.RunContext(ec.Context(), job)
	if err != nil {
		committer.Abort()
		return err
	}
	l.Add(res.Counts, res.SimSeconds)
	return committer.Commit()
}
