package hive

import (
	"slices"

	"dualtable/internal/datum"
	"dualtable/internal/dfs"
	"dualtable/internal/mapred"
	"dualtable/internal/orcfile"
	"dualtable/internal/sim"
)

// ORCSplit is the one scan of an ORC file. Every ORC-backed storage
// reads through it and differs only in the overlay it merges on read:
// a plain ORC table has none, an ACID table folds its delta files into
// one, a DUALTABLE table decodes its attached cells into one. The file
// and every list of the overlay (its deletes, each column's patch) are
// sorted by row ordinal, so the merge is one linear pass per list —
// §V-B's "read through and merge two sorted ID lists", whatever holds
// the delta.
//
// The reader serves batches with two outcomes: a batch no overlay entry
// touches passes through as column vectors; otherwise each patch
// scatters its values into its column's vector in place (a value a
// vector's kind cannot hold turns that column mixed) and deletes are
// left out of the batch's selection. Its row mode (Next) applies the
// same patches to the same decoded batches one record at a time, the
// independent merge behind Cluster.DisableBatchScan.
//
// Ownership: the batch, its vectors and its selection are the reader's
// and are reused between calls, so a mapper must not retain them — and at
// Close the vectors and the decode scratch behind them go back to
// orcfile's free list, where the next task's scan overwrites them. What
// a mapper keeps, it copies (values are safe: strings are immutable).
// The overlay is read-only and its patches' columns lie inside the
// file's schema; splits of concurrent scans may share it.
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
	// A nil overlay is an empty one.
	LoadOverlay func(m *sim.Meter) (*Overlay, error)
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
		ov, err := s.LoadOverlay(m)
		if err != nil {
			fr.Close()
			return nil, err
		}
		if !ov.Empty() {
			r.overlay, r.pat = ov, make([]int, len(ov.Patches))
			r.opts.SearchArg = nil
		}
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
	overlay *Overlay             // nil when empty
	// The overlay cursors: del and pat[p] index the first entry of
	// Deleted and of Patches[p] not yet passed.
	del     int
	pat     []int
	base    uint64 // record ID of the file's row 0
	meter   *sim.Meter
	merged  func(*sim.Meter, int64)
	nMerged int64

	// reusable buffers; cols are the batch reader's.
	cols []datum.ColumnVector
	sel  []int32
	// row mode: the decoded batch's length and next slot, the ordinal
	// of its first row, and the row Next returns.
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
			r.n, r.slot, r.first = n, 0, uint64(ord)
		}
		i := r.slot
		r.slot++
		r.nMerged++
		ord := r.first + uint64(i)
		ov := r.overlay
		if ov != nil {
			if r.del = skipTo(ov.Deleted, r.del, ord); r.del < len(ov.Deleted) && uint64(ov.Deleted[r.del]) == ord {
				continue
			}
		}
		r.row = (&datum.Batch{Len: r.n, Cols: r.cols}).RowInto(r.row, i)
		if ov != nil {
			// The row is refilled whole on the next call, so the patches
			// can be written into it, one on an unprojected column included.
			for p := range ov.Patches {
				pt := &ov.Patches[p]
				k := skipTo(pt.Ords, r.pat[p], ord)
				if k < len(pt.Ords) && uint64(pt.Ords[k]) == ord {
					r.row[pt.Col] = pt.Vals.Datum(k)
				}
				r.pat[p] = k
			}
		}
		return r.row, mapred.RecordMeta{RecordID: r.base + ord}, nil
	}
}

// skipTo returns the first index from i on whose ordinal is at least
// ord. Ordinals below the file row reached are orphans (aborted writes).
func skipTo(ords []uint32, i int, ord uint64) int {
	for i < len(ords) && uint64(ords[i]) < ord {
		i++
	}
	return i
}

// NextBatch decodes the next column-vector batch (consecutive ordinals
// from its first) and merges the overlay entries in its ordinal range
// into it: each patch scatters into its column's vector, deletes drop
// out of Sel. A column no patch touches is not visited.
func (r *orcScanReader) NextBatch(b *mapred.RecordBatch) error {
	n, ord, err := r.decode()
	if err != nil {
		return err // io.EOF ends the stream
	}
	r.nMerged += int64(n)
	b.Len, b.Cols, b.Sel, b.BaseID = n, r.cols, nil, r.base+uint64(ord)
	ov := r.overlay
	if ov == nil {
		return nil
	}
	lo, hi := uint64(ord), uint64(ord)+uint64(n)
	for p := range ov.Patches {
		pt := &ov.Patches[p]
		i := skipTo(pt.Ords, r.pat[p], lo)
		j := skipTo(pt.Ords, i, hi)
		if i < j {
			pt.scatter(&r.cols[pt.Col], i, j, lo)
		}
		r.pat[p] = j
	}
	i := skipTo(ov.Deleted, r.del, lo)
	j := skipTo(ov.Deleted, i, hi)
	r.del = j
	if i == j {
		return nil
	}
	b.Sel = slices.Grow(r.sel[:0], n) // non-nil: a selection, maybe empty
	next := 0                         // the first slot not yet in the selection
	for _, o := range ov.Deleted[i:j] {
		slot := int(uint64(o) - lo)
		for ; next < slot; next++ {
			b.Sel = append(b.Sel, int32(next))
		}
		next = slot + 1
	}
	for ; next < n; next++ {
		b.Sel = append(b.Sel, int32(next))
	}
	r.sel = b.Sel
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
