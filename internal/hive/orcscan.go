package hive

import (
	"slices"

	"dualtable/internal/datum"
	"dualtable/internal/dfs"
	"dualtable/internal/mapred"
	"dualtable/internal/orcfile"
	"dualtable/internal/sim"
)

// RecordMod is one record's entry in an ORC scan's overlay: the record
// is deleted, or some of its columns take new values.
type RecordMod struct {
	RID     uint64
	Deleted bool
	Sets    []ColumnSet // ignored when Deleted
}

// ColumnSet assigns one column, by schema index, of a modified record.
type ColumnSet struct {
	Col int
	Val datum.Datum
}

// ORCSplit is the one scan of an ORC file. Every ORC-backed storage
// reads through it and differs only in the overlay it merges on read:
// a plain ORC table has none, an ACID table folds its delta files into
// one, a DUALTABLE table decodes its attached cells into one. The file
// and the overlay are both sorted by record ID (FileID<<32 | row
// ordinal), so the merge is one linear pass — §V-B's "read through and
// merge two sorted ID lists", whatever holds the delta.
//
// The reader serves batches with two outcomes: a batch no overlay entry
// touches passes through as column vectors; otherwise updates scatter
// into the vectors in place (a value a vector's kind cannot hold turns
// that column mixed) and deletes are left out of the batch's selection.
// Its row mode (Next) merges the same decoded batches one record at a
// time, the independent merge behind Cluster.DisableBatchScan.
//
// Ownership: the batch, its vectors and its selection are the reader's
// and are reused between calls, so a mapper must not retain them — and at
// Close the vectors and the decode scratch behind them go back to
// orcfile's free list, where the next task's scan overwrites them. What
// a mapper keeps, it copies (values are safe: strings are immutable).
// The overlay is read-only, sorted by RID, and its column indexes lie
// inside the file's schema; splits of concurrent scans may share it.
//
// Pushdown is decided per file, not per table: statistics may prune a
// stripe whose rows an overlay update would make match, so Opts.SArg
// applies only when this file's overlay is empty. One dirty file does
// not turn stripe pruning off for the clean ones.
type ORCSplit struct {
	FS   *dfs.FileSystem
	Path string
	Size int64
	Opts ScanOptions // Projection and SArg
	// FileID seeds record IDs; storages that never address records
	// leave it zero.
	FileID uint32
	// Footer, when set, is this file's footer as its storage already
	// parsed it. The task binds it to its own file handle instead of
	// reading and parsing the footer again, and is charged the two reads
	// it was spared, so its meter reads as if it had opened the file.
	Footer *orcfile.Reader
	// LoadOverlay, when set, produces the file's overlay as the task
	// opens the split, charging what reading it costs to the task meter.
	LoadOverlay func(m *sim.Meter) ([]RecordMod, error)
	// Merged, when set, is told at Close how many file rows went through
	// the merge, so a storage can charge its per-row merge overhead once
	// per task instead of once per record.
	Merged func(m *sim.Meter, rows int64)
}

func (s *ORCSplit) Length() int64 { return s.Size }

// OpenFooter reads and parses the footer of the ORC file at p, leaving
// no handle open: what an ORCSplit's Footer holds.
func OpenFooter(fs *dfs.FileSystem, p string) (*orcfile.Reader, error) {
	fr, err := fs.Open(p)
	if err != nil {
		return nil, err
	}
	defer fr.Close()
	return orcfile.Open(fr, fr.Size())
}

func (s *ORCSplit) Open(m *sim.Meter) (mapred.RecordReader, error) {
	fr, err := s.FS.OpenMeter(s.Path, m)
	if err != nil {
		return nil, err
	}
	var rd *orcfile.Reader
	if s.Footer != nil {
		// In orcfile.Open's order: float sums are order-sensitive.
		m.DFSRead(orcfile.TailSize)
		m.DFSRead(s.Footer.FooterLen())
		rd = s.Footer.WithSource(fr)
	} else if rd, err = orcfile.Open(fr, fr.Size()); err != nil {
		fr.Close()
		return nil, err
	}
	r := &orcScanReader{
		fr:     fr,
		rd:     rd,
		opts:   orcfile.RowReaderOptions{Columns: s.Opts.Projection, SearchArg: s.Opts.SArg},
		base:   uint64(s.FileID) << 32,
		meter:  m,
		merged: s.Merged,
	}
	if s.LoadOverlay != nil {
		if r.overlay, err = s.LoadOverlay(m); err != nil {
			fr.Close()
			return nil, err
		}
	}
	if len(r.overlay) > 0 {
		r.opts.SearchArg = nil
	}
	return r, nil
}

// orcScanReader implements the merge. The MapReduce engine picks row
// or batch mode per task and never mixes them; both decode through one
// orcfile.BatchReader, created at the first call.
type orcScanReader struct {
	fr      *dfs.FileReader
	rd      *orcfile.Reader
	opts    orcfile.RowReaderOptions
	batch   *orcfile.BatchReader // lazy
	overlay []RecordMod
	oi      int    // first overlay entry not yet passed
	base    uint64 // record ID of the file's row 0
	meter   *sim.Meter
	merged  func(*sim.Meter, int64)
	nMerged int64

	// reusable buffers; cols are the batch reader's.
	cols []datum.ColumnVector
	sel  []int32
	// row mode: the decoded batch's length and next slot, the record
	// ID of its first row, and the row Next returns.
	n, slot int
	first   uint64
	row     datum.Row
}

// decode fills r.cols with the next batch of the file.
func (r *orcScanReader) decode() (int, int64, error) {
	if r.batch == nil {
		r.batch = r.rd.NewBatchReader(r.opts)
		r.cols = r.batch.Vectors()
	}
	return r.batch.NextBatch(r.cols, 0)
}

func (r *orcScanReader) Next() (datum.Row, mapred.RecordMeta, error) {
	for {
		if r.slot == r.n {
			n, ord, err := r.decode()
			if err != nil {
				return nil, mapred.RecordMeta{}, err // io.EOF ends the stream
			}
			r.n, r.slot, r.first = n, 0, r.base+uint64(ord)
		}
		i := r.slot
		r.slot++
		r.nMerged++
		rid := r.first + uint64(i)
		// Overlay IDs below the file row are orphans (aborted writes).
		for r.oi < len(r.overlay) && r.overlay[r.oi].RID < rid {
			r.oi++
		}
		r.row = (&datum.Batch{Len: r.n, Cols: r.cols}).RowInto(r.row, i)
		if r.oi < len(r.overlay) && r.overlay[r.oi].RID == rid {
			mod := &r.overlay[r.oi]
			r.oi++
			if mod.Deleted {
				continue
			}
			// The row is refilled whole on the next call, so the sets can
			// be written into it, a set on an unprojected column included.
			for _, s := range mod.Sets {
				r.row[s.Col] = s.Val
			}
		}
		return r.row, mapred.RecordMeta{RecordID: rid}, nil
	}
}

// NextBatch decodes the next column-vector batch (consecutive record
// IDs from its base) and merges the overlay entries in its ID range
// into it: sets scatter into the vectors, deletes drop out of Sel.
func (r *orcScanReader) NextBatch(b *mapred.RecordBatch) error {
	n, ord, err := r.decode()
	if err != nil {
		return err // io.EOF ends the stream
	}
	r.nMerged += int64(n)
	base := r.base + uint64(ord)
	for r.oi < len(r.overlay) && r.overlay[r.oi].RID < base {
		r.oi++
	}
	lo := r.oi
	for r.oi < len(r.overlay) && r.overlay[r.oi].RID < base+uint64(n) {
		r.oi++
	}
	mods := r.overlay[lo:r.oi]

	b.Len, b.Cols, b.Sel, b.BaseID = n, r.cols, nil, base
	next := 0 // the first slot not yet in the selection
	for i := range mods {
		slot := int(mods[i].RID - base)
		if !mods[i].Deleted {
			for _, s := range mods[i].Sets {
				r.cols[s.Col].Put(slot, s.Val)
			}
			continue
		}
		if b.Sel == nil {
			b.Sel = slices.Grow(r.sel[:0], n) // non-nil: a selection, maybe empty
		}
		for ; next < slot; next++ {
			b.Sel = append(b.Sel, int32(next))
		}
		next = slot + 1
	}
	if b.Sel != nil {
		for ; next < n; next++ {
			b.Sel = append(b.Sel, int32(next))
		}
		r.sel = b.Sel
	}
	return nil
}

func (r *orcScanReader) Close() error {
	if r.merged != nil {
		r.merged(r.meter, r.nMerged)
	}
	if r.batch != nil {
		r.batch.Close()
	}
	return r.fr.Close()
}
