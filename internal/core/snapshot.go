package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dualtable/internal/datum"
	"dualtable/internal/dfs"
	"dualtable/internal/hive"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/orcfile"
	"dualtable/internal/sim"
)

// tableState is the per-table concurrency state. Two locks with
// strictly separated roles replace the old per-table RWMutex that
// COMPACT held exclusively for its whole rewrite:
//
//   - writer serializes mutating operations (EDIT DML, INSERT append,
//     OVERWRITE, COMPACT) against each other, preserving the paper's
//     "all the other operations will be blocked during COMPACT" for
//     writers. Scans never touch it.
//   - pub guards the manifest swap and snapshot acquisition only: it
//     is held for the brief moment a writer publishes a new epoch or
//     a reader pins the current one — never across a MapReduce job —
//     so scans and compactions overlap freely.
//
// pub additionally guards the MVCC-DDL bookkeeping: the live snapshot
// count, the dropped flag and pending drop job (pin-aware DROP defers
// reclamation until the last snapshot releases), and the resident
// epoch. Which epochs are kept, and which files they hold, is the
// manifest chain's record (metastore.RetentionEpochs), not the table
// state's.
type tableState struct {
	writer sync.Mutex
	pub    sync.Mutex

	// snaps counts open (or opening) snapshots of this table.
	snaps int
	// dropped marks a table whose DROP ran; new snapshot opens fail.
	dropped bool
	// pendingDrop is the reclamation deferred until snaps reaches 0.
	pendingDrop *dropJob
	// res is the resident snapshot of the current epoch (nil = none).
	res *residentEpoch
	// att is the incarnation's attached table once a scan open resolved
	// it (only DROP removes it; a re-CREATE starts a new tableState).
	// Guarded by pub.
	att *kvstore.Table
}

// residentEpoch is what a table keeps of the last current-epoch open it
// loaded, so that opening an epoch nothing has touched since is a pin
// and not a re-materialisation. There is one per table, it holds no more
// than the open that filled it held, and everything it points to is
// read-only and shared with the snapshots that loaded or reuse it.
// Guarded by pub.
//
// files is the epoch's master file set, every file with its parsed
// footer. A replace — the one publish that takes files out of a
// manifest — and DROP empty the slot, and every other publish only adds
// files at the end, so files is always a prefix of the current manifest's
// list: an open of a newer epoch takes file i's footer from files[i].
// Master paths are never reused inside an incarnation and a re-CREATE
// starts a new tableState, so a footer never describes another file's
// bytes.
//
// entries/preScans (nil = none) are the attached-table overlay of
// exactly (epoch, watermark), materialised when the attached table's
// mutation counter read mutations. The key has to be that exact:
// preScans count the seek, cells and store-file blocks each file's
// pre-scan touched, so they depend on the LSM's physical state
// (memtable vs store files, and how many of them) as well as on the
// cells. An open replays the overlay only while the epoch, the
// watermark and the counter (every Put, flush and compaction moves it)
// are all what the load saw — nothing a fresh scan reads has changed,
// so its counts are the fresh scan's. The attached table itself is the
// incarnation's for its whole life: only DROP removes it, and a
// re-CREATE starts a new tableState. A watermark or append publish
// drops the overlay and keeps the footers.
type residentEpoch struct {
	epoch, watermark uint64
	files            []masterFile

	mutations uint64
	entries   map[uint32]*hive.Overlay
	preScans  []preScan
}

// holds reports whether r is the resident form of the given epoch.
func (r *residentEpoch) holds(epoch, watermark uint64) bool {
	return r != nil && r.epoch == epoch && r.watermark == watermark
}

// footer returns the resident footer of the manifest's i-th file.
func (r *residentEpoch) footer(i int, path string) *orcfile.Reader {
	if r == nil || i >= len(r.files) || r.files[i].path != path {
		return nil
	}
	return r.files[i].reader
}

// dropOverlayLocked forgets the overlay: the epoch it belongs to was
// just superseded. Caller holds pub.
func (st *tableState) dropOverlayLocked() {
	if r := st.res; r != nil {
		r.entries, r.preScans = nil, nil
	}
}

// keepLocked makes a freshly loaded current-epoch snapshot the table's
// resident epoch. It keeps nothing of a load that a publish or a DROP
// overtook (the epoch is no longer current), and no overlay of a load
// the attached table changed under (the counter moved across it).
// Caller holds pub.
func (st *tableState) keepLocked(snap *Snapshot) {
	if st.dropped {
		return
	}
	if epoch, _, err := snap.h.e.MS.CurrentEpoch(snap.desc.Name); err != nil || epoch != snap.Epoch {
		return
	}
	res := &residentEpoch{epoch: snap.Epoch, watermark: snap.Watermark, files: snap.files}
	if snap.att.Mutations() == snap.mutations {
		res.mutations = snap.mutations
		res.entries, res.preScans = snap.entries, snap.preScans
	} else if cur := st.res; cur != nil && cur.epoch == snap.Epoch {
		return // the slot already holds this epoch's files, perhaps with an overlay
	}
	st.res = res
}

// state returns (creating on first use) the table's concurrency state.
func (h *Handler) state(name string) *tableState {
	h.mu.Lock()
	defer h.mu.Unlock()
	key := strings.ToLower(name)
	st, ok := h.states[key]
	if !ok {
		st = &tableState{}
		h.states[key] = st
	}
	return st
}

// Snapshot is a pinned, immutable view of one DUALTABLE epoch: the
// manifest's exact master file set (pin-counted in the DFS so a
// concurrent COMPACT/OVERWRITE cannot delete them mid-scan) plus the
// attached-table modifications visible at the manifest watermark,
// materialized at open. A scan resolves one Snapshot and reads it to
// completion; writers publishing new epochs never invalidate it, so a
// scan that races a compaction returns byte-identical rows to a
// pre-compaction scan of the same epoch.
type Snapshot struct {
	h    *Handler
	desc *metastore.TableDesc
	// Epoch is the manifest epoch this snapshot pinned.
	Epoch uint64
	// Watermark is the attached-table visibility ceiling: only cells
	// with timestamp <= Watermark belong to this epoch.
	Watermark uint64

	// files lists the manifest's files, each pinned in the DFS until
	// Release; a file's footer is the resident epoch's or, once load ran,
	// freshly parsed. Shared with the resident epoch: read-only once
	// loaded.
	files []masterFile
	// entries maps master file ID -> that file's attached-table
	// modifications, filtered to the watermark and decoded into the
	// UNION READ overlay; a file without any has no entry. Shared with
	// the resident epoch: read-only.
	entries map[uint32]*hive.Overlay
	// preScans[i] is what the attached pre-scan of files[i] charged,
	// counted at materialization and charged to the task meter when the
	// file's split opens — so each task's counts are what they were
	// when tasks scanned the attached table themselves. Shared with the
	// resident epoch: read-only.
	preScans []preScan
	// att is the attached table the entries come from and mutations its
	// counter when this snapshot was pinned.
	att       *kvstore.Table
	mutations uint64

	// st is the table state whose snapshot count this snapshot holds:
	// Release decrements it and fires a pending DROP's reclamation when
	// it was the last one.
	st *tableState

	released atomic.Bool
}

// OpenSnapshot pins the table's current epoch, including materialized
// attached entries. Release must be called exactly once when the scan
// is done.
func (h *Handler) OpenSnapshot(desc *metastore.TableDesc) (*Snapshot, error) {
	return h.open(desc, nil)
}

// OpenSnapshotAt pins a historical epoch for a time-travel read
// (SELECT ... AS OF EPOCH n). The epoch must be inside the retention
// window — its manifest still in the chain — where retention guarantees
// its files and attached cells are intact. Release must be called
// exactly once.
func (h *Handler) OpenSnapshotAt(desc *metastore.TableDesc, epoch uint64) (*Snapshot, error) {
	return h.open(desc, &epoch)
}

// optimisticAttempts is how many times an open loads outside the
// publish lock before it loads under it.
const optimisticAttempts = 3

// open pins one epoch — the current one, or *asOf — and loads it.
//
// Only the cheap parts run under the publish lock: manifest resolution,
// file pinning, and afterwards one validity test. The heavy parts —
// footer opens and the attached-table materialization — run outside it,
// so a session-wide read.epoch pin or a large delta does not serialize
// every open and publish behind a materialization. What a publish can do
// to a load in flight is exactly one thing: purge the attached cells it
// is reading, and it purges only the cells of epochs that have left the
// retention window. So the load is exact iff the pinned epoch is still
// inside the window afterwards (inWindowLocked, under pub). Nothing else
// needs a test: the files are pinned; a COMPACT/OVERWRITE inside the
// window keeps the superseded set's cells, so the snapshot stays exact at
// its pinned epoch; and cells a concurrent EDIT writes carry timestamps
// above this snapshot's watermark, which the materialization filters
// out. A current-epoch open that left the window retries against the new
// epoch; a historical one has nothing newer to be, and expires. After a
// few lost races the load runs with the lock held, where no publish can
// land, bounding livelock under pathological compaction churn.
//
// A current-epoch open whose epoch is resident (residentEpoch) with
// everything it needs has nothing to load and returns from the first
// lock hold; one that loaded leaves its load resident for the next.
func (h *Handler) open(desc *metastore.TableDesc, asOf *uint64) (*Snapshot, error) {
	st := h.state(desc.Name)
	for attempt := 0; ; attempt++ {
		st.pub.Lock()
		snap, resident, err := h.pinLocked(desc, st, asOf)
		if err != nil {
			st.pub.Unlock()
			return nil, err
		}
		if resident {
			// Nothing to load, so nothing a publish could have purged:
			// the resident epoch is the current one.
			st.pub.Unlock()
			return snap, nil
		}
		if attempt < optimisticAttempts {
			st.pub.Unlock()
			err = snap.load()
			if h.onSnapshotLoaded != nil {
				h.onSnapshotLoaded(snap)
			}
			st.pub.Lock()
		} else {
			err = snap.load() // no publish can land: this one is exact
		}
		exact := err == nil && h.inWindowLocked(desc, st, snap.Epoch)
		// A historical epoch is never resident: its files may have left
		// the manifest before it pinned them.
		if exact && asOf == nil {
			st.keepLocked(snap)
		}
		st.pub.Unlock()
		if exact {
			return snap, nil
		}
		snap.Release()
		if err != nil {
			return nil, err
		}
		if asOf != nil {
			return nil, fmt.Errorf("core: %s AS OF EPOCH %d: epoch expired during open: %w",
				desc.Name, *asOf, metastore.ErrEpochExpired)
		}
	}
}

// pinLocked resolves the epoch an open reads, pins its files and counts
// the snapshot. Counting under the same pub hold as the incarnation
// check means a DROP landing after this point defers its reclamation
// until this snapshot (and every other) releases. A current-epoch open
// takes from the resident epoch whatever is still exactly what a load
// would produce; resident reports that this was everything the open
// needs, so there is nothing left to load. Caller holds pub.
func (h *Handler) pinLocked(desc *metastore.TableDesc, st *tableState, asOf *uint64) (snap *Snapshot, resident bool, err error) {
	if err := h.checkIncarnationLocked(desc, st); err != nil {
		return nil, false, err
	}
	snap = &Snapshot{h: h, desc: desc, st: st}
	if st.att == nil {
		if st.att, err = h.attached(desc); err != nil {
			return nil, false, err
		}
	}
	snap.att = st.att
	snap.mutations = snap.att.Mutations()
	var man *metastore.Manifest
	res := st.res
	if asOf != nil {
		if man, err = h.e.MS.ManifestAt(desc.Name, *asOf); err != nil {
			err = fmt.Errorf("core: %s AS OF EPOCH %d: %w", desc.Name, *asOf, err)
		}
	} else if snap.Epoch, snap.Watermark, err = h.e.MS.CurrentEpoch(desc.Name); err == nil && !res.holds(snap.Epoch, snap.Watermark) {
		man, err = h.e.MS.CurrentManifest(desc.Name)
	}
	if err != nil {
		return nil, false, err
	}
	if man != nil {
		snap.Epoch, snap.Watermark = man.Epoch, man.Watermark
		snap.files = make([]masterFile, len(man.Files))
		for i, mf := range man.Files {
			snap.files[i] = newMasterFile(mf, res.footer(i, mf.Path))
		}
	} else {
		snap.files = res.files
		resident = res.entries != nil && res.mutations == snap.mutations
		if resident {
			snap.entries, snap.preScans = res.entries, res.preScans
		}
	}
	for i := range snap.files {
		if err := h.e.FS.Pin(snap.files[i].path); err != nil {
			// Single attempts: retry backoff under pub would stall every
			// other open and publish.
			for _, f := range snap.files[:i] {
				h.unpinDeferred(f.path)
			}
			if asOf != nil {
				// A window epoch's files are current or hold their
				// retention pin; one that is gone all the same (its pin
				// could not be taken at supersede) cannot be served.
				return nil, false, fmt.Errorf("core: %s AS OF EPOCH %d: file %s reclaimed: %w",
					desc.Name, *asOf, snap.files[i].path, metastore.ErrEpochExpired)
			}
			return nil, false, fmt.Errorf("core: pin master file %s: %w", snap.files[i].path, err)
		}
	}
	st.snaps++
	return snap, resident, nil
}

// inWindowLocked is open's post-load test of whether an epoch of st's
// incarnation may still be served: it is inside the retention window,
// current − epoch <= RetentionEpochs, the epochs whose manifests the
// chain holds. Expiry drops the set a replace superseded at epoch S
// (its files and the attached cells keyed by them) only once
// S+RetentionEpochs <= current, when epoch S−1, the last that names
// them, leaves the chain, so every epoch in the window still has its
// files and its cells. A dropped incarnation publishes and purges nothing
// more (its attached table goes when its last snapshot releases), so
// its current epoch stays where the DROP left it — whatever epochs a
// re-CREATE of the name publishes. Caller holds pub.
func (h *Handler) inWindowLocked(desc *metastore.TableDesc, st *tableState, epoch uint64) bool {
	if st.dropped {
		return true
	}
	cur, _, err := h.e.MS.CurrentEpoch(desc.Name)
	return err == nil && cur-epoch <= metastore.RetentionEpochs
}

// load parses the footer of every file the resident epoch did not have
// and materializes the attached entries.
func (s *Snapshot) load() (err error) {
	for i := range s.files {
		f := &s.files[i]
		if f.reader != nil {
			continue
		}
		if f.reader, err = s.h.openFooter(f.path); err != nil {
			return err
		}
	}
	return s.loadEntries()
}

func newMasterFile(mf metastore.ManifestFile, footer *orcfile.Reader) masterFile {
	return masterFile{path: mf.Path, size: mf.Size, fileID: mf.FileID, rows: mf.Rows, reader: footer}
}

// openFooter parses one master file's footer. The reader it returns is
// metadata only — its file handle is closed; a scan task binds it to the
// handle it opens under its own meter (hive.ORCSplit.Footer).
func (h *Handler) openFooter(path string) (*orcfile.Reader, error) {
	rd, err := hive.OpenFooter(h.e.FS, path)
	if err != nil {
		return nil, fmt.Errorf("core: open master file %s: %w", path, err)
	}
	return rd, nil
}

// loadEntries materializes the attached table into per-file entry
// lists, keeping for each (record, column) the newest cell at or
// below the snapshot watermark. Materializing at open is what makes a
// pinned scan immune to the purge of its cells once its epoch leaves the
// retention window: the entries this snapshot needs already live in
// memory (open's window test rejects a materialization the purge
// overtook). EDIT keeps the attached table small relative to
// the master, so the one-pass buffering is cheap — and scan tasks no
// longer touch the key-value store at all. Each file's ranged pre-scan
// is counted separately (one meter, reset per file, that only counts);
// its counts are replayed onto the task meter when the file's split
// opens, keeping the per-task makespan accounting of the old
// scan-at-task-open design.
func (s *Snapshot) loadEntries() error {
	s.preScans = make([]preScan, len(s.files))
	b := hive.NewOverlayBuilder()
	defer b.Release()
	m := sim.NewMeter(nil)
	for i, f := range s.files {
		start, end := FileRange(f.fileID)
		m.Reset()
		sc := s.att.NewScanner(kvstore.Scan{Start: start, End: end, Meter: m, MaxVersions: math.MaxInt32})
		b.File()
		err := s.foldOverlay(sc, b)
		if cerr := sc.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("core: scan attached table of %s: %w", s.desc.Name, cerr)
		}
		if err != nil {
			return err
		}
		c := m.Counts()
		s.preScans[i] = preScan{c[sim.KVSeeks], c[sim.KVReadBytes], c[sim.DFSOpens], c[sim.DFSReadBytes]}
	}
	overlays := b.Finish()
	s.entries = make(map[uint32]*hive.Overlay, len(overlays))
	for i := range overlays {
		if !overlays[i].Empty() {
			s.entries[s.files[i].fileID] = &overlays[i]
		}
	}
	return nil
}

// preScan is what one file's attached pre-scan charged: the seek that
// opens the range, the bytes of the cells it drew, and the opens and
// reads of the store-file blocks it loaded. A ranged scan charges
// nothing else, so it is kept by value in these four counts rather than
// as a whole sim.Counts.
type preScan struct {
	seeks, kvBytes, opens, dfsBytes int64
}

// foldOverlay drains one file's attached range into the builder's
// current file: per record and column the newest version with Ts <= the
// snapshot watermark, decoded — a delete marker, or one column value per
// cell whose qualifier names a schema column. Cells arrive from the
// version resolver ordered by row, then (family, qualifier), with
// timestamps descending inside each column, so each cell is folded as
// it arrives: the first qualifying version of a column is the one, and
// a delete marker settles the record. Every cell is still drawn from the
// scanner (that is what the meter charges for), and a cell is decoded
// before the scanner advances. The ranges this reads hold only puts
// (delete markers are puts of __del__), so no delete semantics apply
// here: DualTable writes no KV tombstone into an attached table, and the
// ranges purgeAttachedRanges retires at retention expiry are ones the
// window test guarantees no snapshot ever materializes again.
func (s *Snapshot) foldOverlay(sc *kvstore.Scanner, b *hive.OverlayBuilder) error {
	var (
		row, qual []byte // the record and column being folded
		fam       string // (copies: a scanned cell is the scanner's)
		rid       RecordID
		inRow     bool
		skip      bool // the row's key is malformed, or the record is settled
		inCol     bool
		taken     bool // the column's version at the watermark was seen
	)
	for {
		c, ok := sc.Next()
		if !ok {
			return nil
		}
		if !inRow || !bytes.Equal(c.Row, row) {
			row = append(row[:0], c.Row...)
			var err error
			rid, err = RecordIDFromKey(row)
			inRow, inCol = true, false
			skip = err != nil // malformed key: skip (cannot happen with our writers)
			if !skip {
				b.Record(rid.RowNumber())
			}
		}
		if skip {
			continue
		}
		if !inCol || c.Family != fam || !bytes.Equal(c.Qualifier, qual) {
			fam, qual = c.Family, append(qual[:0], c.Qualifier...)
			inCol, taken = true, false
		}
		if taken || c.Ts > s.Watermark {
			continue
		}
		taken = true
		if string(qual) == deleteQualifier {
			b.Delete()
			skip = true
			continue
		}
		idx, err := strconv.Atoi(string(qual))
		if err != nil || idx < 0 || idx >= len(s.desc.Schema) {
			continue
		}
		d, _, err := datum.DecodeDatum(c.Value)
		if err != nil {
			return fmt.Errorf("core: decode attached cell %s: %w", rid, err)
		}
		b.Set(idx, d)
	}
}

// Files exposes the pinned master file set (observability).
func (s *Snapshot) Files() []string {
	paths := make([]string, len(s.files))
	for i, f := range s.files {
		paths[i] = f.path
	}
	return paths
}

// Splits returns UNION READ splits over the pinned file set: one per
// master file, each merging the ORC rows with this snapshot's
// materialized attached entries for that file (paper §III-C UNION
// READ, §V-B). The splits stay valid until Release.
func (s *Snapshot) Splits(opts ScanOptions) []mapred.InputSplit {
	var splits []mapred.InputSplit
	for i, f := range s.files {
		entries, pre := s.entries[f.fileID], &s.preScans[i]
		splits = append(splits, &hive.ORCSplit{
			FS: s.h.e.FS, Path: f.path, Size: f.size, Opts: opts, FileID: f.fileID,
			Footer: f.reader,
			// The task "performs" the attached pre-scan it got the results
			// of: its counts, taken at snapshot open, land on the task
			// meter here.
			LoadOverlay: func(m *sim.Meter) (*hive.Overlay, error) {
				m.Add(sim.Counts{sim.KVSeeks: pre.seeks, sim.KVReadBytes: pre.kvBytes, sim.DFSOpens: pre.opens, sim.DFSReadBytes: pre.dfsBytes})
				return entries, nil
			},
			// The paper's Fig. 4 per-row "function invocation" overhead of
			// the merge, present even with an empty attached table.
			Merged: (*sim.Meter).UnionReadRows,
		})
	}
	return splits
}

// Release unpins the snapshot's master files; superseded files whose
// last pin drops are removed by the DFS's deferred deletion. When this
// was the last snapshot of a dropped table, the table's deferred
// reclamation (attached KV table, manifest chain, metadata, master
// directory) runs now — the pin-aware DROP contract. Idempotent.
func (s *Snapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	for _, f := range s.files {
		// Retried delivery: a dropped Unpin would strand the file's
		// deferred deletion forever.
		s.h.unpinRetry(f.path)
	}
	s.st.pub.Lock()
	s.st.snaps--
	var job *dropJob
	if s.st.snaps == 0 && s.st.pendingDrop != nil {
		job, s.st.pendingDrop = s.st.pendingDrop, nil
	}
	s.st.pub.Unlock()
	if job != nil {
		_ = s.h.reclaim(job) // best effort; see Handler.Drop
	}
}

// publish commits the table's next epoch; every writer ends here. The
// next file set is the current one plus files (INSERT INTO / LOAD /
// bulk load) or, for a replace, exactly files (OVERWRITE and COMPACT).
// An append of nothing is the commit point of an EDIT UPDATE/DELETE:
// the cells the DML wrote carry timestamps above the previous
// watermark, so snapshots opened before this publish do not see them,
// and the fresh watermark makes them visible atomically.
//
// The manifest swap is the commit point: an error return means the
// swap did NOT happen and the caller may discard its staged files.
// Post-swap cleanup (the superseded set, retention expiry) is
// best-effort — a failure there must never surface as a publish
// failure, because the new epoch is already current and discarding
// its files would leave the table pointing at nothing. A missed purge
// only leaves orphaned cells keyed by superseded file IDs (invisible
// to the new epoch's scans); a missed delete only leaks a file.
func (h *Handler) publish(desc *metastore.TableDesc, files []metastore.ManifestFile, replace bool) error {
	st := h.state(desc.Name)
	st.pub.Lock()
	if err := h.checkIncarnationLocked(desc, st); err != nil {
		st.pub.Unlock()
		return err
	}
	var superseded, expired []metastore.ManifestFile
	var err error
	if len(files) == 0 && !replace {
		// File set unchanged: the metastore shares the current manifest's
		// file slice instead of cloning it twice (once to read it, once to
		// publish), so a watermark-only commit costs no per-file work.
		_, expired, err = h.e.MS.PublishWatermark(desc.Name, h.e.KV.NextTs())
	} else if cur, curErr := h.e.MS.CurrentManifest(desc.Name); curErr != nil {
		err = curErr
	} else {
		next := &metastore.Manifest{Table: desc.Name, Epoch: cur.Epoch + 1, Watermark: h.e.KV.NextTs(), Files: files}
		if replace {
			superseded = cur.Files
		} else {
			next.Files = append(cur.Files, files...) // cur is this call's own copy
		}
		expired, err = h.e.MS.PublishManifest(next)
	}
	if err != nil {
		st.pub.Unlock()
		return err
	}
	// Committed. Cleanup below is best-effort.
	if replace {
		h.supersedeLocked(st, superseded)
	} else {
		st.dropOverlayLocked()
	}
	// Retention expiry: the files whose last serviceable epoch just left
	// the window release their retention pin, so the deferred deletion
	// issued at supersede fires. Their attached ranges are purged after
	// the lock drops: no open can reach those ranges any more, since the
	// epochs that named the files are outside the window from this
	// publish on.
	for _, f := range expired {
		h.unpinDeferred(f.Path)
	}
	st.pub.Unlock()
	if len(expired) > 0 {
		h.purgeAttachedRanges(desc, expired)
	}
	h.drainCleanup()
	return nil
}

// supersedeLocked disposes of the file set a replace took out of the
// manifest: every superseded master file is handed to the DFS's
// deferred deletion — removed immediately unless a pin still holds it,
// in which case it survives until the last one releases.
//
// Retention: each superseded file takes a retention pin (and the
// attached cells keyed by its file ID stay in place) so time-travel
// reads of the epochs it served remain serviceable; publish releases
// and purges both when the last manifest naming the file leaves the
// chain. File IDs are never reused and the new files' IDs are
// disjoint, so the stale cells are invisible to every scan of the new
// epoch. Caller holds pub.
func (h *Handler) supersedeLocked(st *tableState, old []metastore.ManifestFile) {
	st.res = nil // every resident file just left the manifest
	for _, f := range old {
		// A file already gone has nothing to retain; its expiry Unpin
		// then finds nothing, which counts as delivered.
		_ = h.e.FS.Pin(f.Path)
	}
	for _, f := range old {
		// Single attempt under the publish lock (retry backoff here
		// would stall snapshot opens); failures go to the condemned
		// ledger, re-driven after the lock drops.
		if err := h.e.FS.DeleteDeferred(f.Path); err != nil && !errors.Is(err, dfs.ErrNotFound) {
			h.condemn(f.Path)
		}
	}
}

// checkIncarnationLocked rejects work against a dropped or re-created
// table. For writers: a descriptor resolved just before a concurrent
// DROP tombstoned the namespace must not publish a new epoch onto the
// doomed chain (the acknowledged write would vanish at reclamation),
// nor may a previous incarnation's descriptor publish its files into
// the chain a re-CREATE established. For readers: a stale descriptor
// would resolve the NEW incarnation's manifest by name but materialize
// attached entries from the OLD incarnation's gen-tagged KV table —
// and since file IDs restart per incarnation, the dead edits would
// silently overlay the new table's rows. Caller holds the table's pub
// lock.
func (h *Handler) checkIncarnationLocked(desc *metastore.TableDesc, st *tableState) error {
	if st.dropped {
		return fmt.Errorf("%w: %s (dropped)", metastore.ErrTableNotFound, desc.Name)
	}
	gen, registered := h.e.MS.TableProperty(desc.Name, genProperty)
	if !registered {
		return fmt.Errorf("%w: %s (dropped)", metastore.ErrTableNotFound, desc.Name)
	}
	if gen != desc.Properties[genProperty] {
		return fmt.Errorf("%w: %s (re-created since this descriptor was resolved)",
			metastore.ErrTableNotFound, desc.Name)
	}
	return nil
}

// purgeAttachedRanges retires the attached-table rows keyed by the
// given (superseded) master files' record ID ranges: scans stop
// returning them at once, and the attached table's next flush or
// compaction drops them. File IDs are never reused, so no writer puts
// into those ranges again. Nothing is read or written, so the publish
// that expires a file set pays nothing for the size of its delta. Best
// effort: the cells are invisible to every live scan regardless, so a
// missed purge only delays space reclamation.
func (h *Handler) purgeAttachedRanges(desc *metastore.TableDesc, files []metastore.ManifestFile) {
	att, err := h.attached(desc)
	if err != nil {
		return
	}
	for _, f := range files {
		att.RetireRange(FileRange(f.FileID))
	}
}

// CurrentEpoch returns the table's current manifest epoch
// (observability for tests and the harness).
func (h *Handler) CurrentEpoch(desc *metastore.TableDesc) (uint64, error) {
	st := h.state(desc.Name)
	st.pub.Lock()
	defer st.pub.Unlock()
	epoch, _, err := h.e.MS.CurrentEpoch(desc.Name)
	return epoch, err
}
