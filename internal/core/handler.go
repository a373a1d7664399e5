package core

import (
	"fmt"
	"math"
	"path"
	"sort"
	"strings"
	"sync"

	"dualtable/internal/costmodel"
	"dualtable/internal/hive"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/orcfile"
	"dualtable/internal/sim"
)

const (
	// attachedFamily is the column family of attached-table cells.
	attachedFamily = "d"
	// deleteQualifier marks a deleted record (the paper's "special
	// HBase cell" delete marker, §V-B).
	deleteQualifier = "__del__"
	// metaTableName is the system-wide metadata table holding the
	// incremental file ID counters (paper §V-B).
	metaTableName = "dualtable_meta"
	// fileIDMetaKey is the ORC user-metadata key storing the file ID.
	fileIDMetaKey = "dualtable.fileid"
	// genProperty is the table property holding the incarnation tag a
	// CREATE assigns. Every physical name the handler derives (attached
	// KV table, master directory, file-ID counter row) embeds it, so a
	// table re-created while a pin-aware DROP's reclamation is still
	// pending gets fresh storage instead of resurrecting the doomed
	// incarnation's rows and colliding with its condemned files.
	genProperty = "dualtable.gen"
)

// The cost model's fixed inputs. defaultFollowingReads is k, the
// number of full-table reads expected after a modification, unless the
// session variable hive.VarFollowingReads says otherwise; markerBytes
// is m, the delete marker size.
const (
	defaultFollowingReads = 1
	markerBytes           = 16
)

// Handler implements hive.StorageHandler, hive.DMLHandler and
// hive.Compactor for STORED AS DUALTABLE tables.
type Handler struct {
	e     *hive.Engine
	model *costmodel.Model
	est   *costmodel.RatioEstimator

	mu     sync.Mutex
	meta   *kvstore.Table
	states map[string]*tableState // per-table writer/publish locks
	// planLog records the plan chosen for each DML statement, newest
	// last (observability for tests and the harness).
	planLog []PlanDecision
	// onCompactStaged, when set, runs after a COMPACT's rewrite job
	// finishes but before its epoch publishes (test hook for holding a
	// compaction mid-flight while concurrent scans run).
	onCompactStaged func(table string)
	// onSnapshotLoaded, when set, runs between an open's load and its
	// validity test, with no lock held (test hook for ordering a publish
	// against an open in flight; an open that loads under the publish
	// lock does not fire it). Set it before any open runs.
	onSnapshotLoaded func(*Snapshot)

	// cleanupMu guards the crash-consistency ledgers (recovery.go):
	// condemned holds staged/orphaned files whose removal exhausted its
	// retries, pinDebt counts Unpins that could not be delivered. Both
	// are re-driven after every publish and by RecoverOrphans.
	cleanupMu sync.Mutex
	condemned map[string]bool
	pinDebt   map[string]int
}

// PlanDecision records one cost-model decision.
type PlanDecision struct {
	Table     string
	Statement string
	Plan      costmodel.Plan
	Ratio     float64
	RatioSrc  string
	CostDelta float64 // CostU or CostD (positive → EDIT)
}

// Register installs the DualTable storage handler on an engine.
func Register(e *hive.Engine) (*Handler, error) {
	h := &Handler{
		e:      e,
		model:  costmodel.New(e.MR.Params),
		est:    costmodel.NewRatioEstimator(),
		states: map[string]*tableState{},
	}
	if !e.KV.HasTable(metaTableName) {
		if _, err := e.KV.CreateTable(metaTableName); err != nil {
			return nil, err
		}
	}
	var err error
	if h.meta, err = e.KV.Table(metaTableName); err != nil {
		return nil, err
	}
	e.RegisterHandler(metastore.StorageDual, h)
	return h, nil
}

// Estimator exposes the ratio estimator (for designer hints).
func (h *Handler) Estimator() *costmodel.RatioEstimator { return h.est }

// Model exposes the cost model.
func (h *Handler) Model() *costmodel.Model { return h.model }

// PlanLog returns a copy of recorded plan decisions.
func (h *Handler) PlanLog() []PlanDecision {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]PlanDecision(nil), h.planLog...)
}

// logPlan records a decision in the handler-global log and forwards
// it to the calling session's observer, so concurrent sessions each
// see exactly their own decisions.
func (h *Handler) logPlan(ec *hive.ExecContext, d PlanDecision) {
	h.mu.Lock()
	h.planLog = append(h.planLog, d)
	if len(h.planLog) > 1024 {
		h.planLog = h.planLog[len(h.planLog)-1024:]
	}
	h.mu.Unlock()
	ec.ObservePlan(d)
}

// SetCompactStagedHook installs a callback that runs after a
// COMPACT's rewrite job completes but before its new epoch publishes
// (nil to clear). Tests use it to hold a compaction mid-flight and
// prove concurrent scans neither block on it nor observe it.
func (h *Handler) SetCompactStagedHook(fn func(table string)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.onCompactStaged = fn
}

// compactStagedHook reads the hook under the mutex.
func (h *Handler) compactStagedHook() func(string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.onCompactStaged
}

// masterDir is the incarnation's master-file directory (Create tags
// every incarnation).
func masterDir(desc *metastore.TableDesc) string {
	return path.Join(desc.Location, "master_"+desc.Properties[genProperty])
}

// attachedName is the incarnation's attached KV table name (Create tags
// every incarnation).
func attachedName(desc *metastore.TableDesc) string {
	return "dt_" + strings.ToLower(desc.Name) + "_attached_" + desc.Properties[genProperty]
}

// metaRow is the incarnation's file-ID counter row in the system
// metadata table.
func metaRow(desc *metastore.TableDesc) []byte {
	return []byte(strings.ToLower(desc.Name) + "#" + desc.Properties[genProperty])
}

// Create provisions the master directory, the attached table, the
// file ID counter (paper §III-C CREATE), and the table's epoch-0
// manifest (empty file set). Each CREATE is a fresh incarnation: its
// physical names carry a unique tag, so creating a name whose previous
// incarnation is still being reclaimed (pin-aware DROP with snapshots
// in flight) starts from genuinely empty storage.
func (h *Handler) Create(desc *metastore.TableDesc) error {
	if desc.Properties == nil {
		desc.Properties = map[string]string{}
	}
	desc.Properties[genProperty] = fmt.Sprintf("g%d", h.e.KV.NextTs())
	// Reset the per-table concurrency state: a dropped previous
	// incarnation's state (pending reclamation, dropped flag) must not
	// leak into the new table. Snapshots of the old incarnation hold
	// direct pointers to the old state, so their releases still land
	// there.
	h.mu.Lock()
	h.states[strings.ToLower(desc.Name)] = &tableState{}
	h.mu.Unlock()
	if err := h.e.FS.MkdirAll(masterDir(desc)); err != nil {
		return err
	}
	if _, err := h.e.KV.CreateTable(attachedName(desc)); err != nil {
		return err
	}
	// A leftover chain — from a partially failed CREATE or a previous
	// incarnation awaiting reclamation — is reset, not grown: the
	// table is brand new and starts at an empty epoch 0.
	h.e.MS.DropManifests(desc.Name)
	if _, err := h.e.MS.PublishManifest(&metastore.Manifest{
		Table:     desc.Name,
		Epoch:     0,
		Watermark: h.e.KV.NextTs(),
	}); err != nil {
		return err
	}
	return h.meta.PutRow(metaRow(desc), attachedFamily,
		map[string][]byte{"nextfile": []byte("1")}, nil)
}

// dropJob captures everything a pin-aware DROP must reclaim once the
// table's last pinned snapshot releases: the incarnation's attached KV
// table, manifest chain (by identity, so a re-CREATE's chain is safe),
// file-ID counter row, and master directory.
type dropJob struct {
	table     string
	attached  string
	metaRow   []byte
	masterDir string
	location  string
	chainID   uint64
	hasChain  bool
}

// Drop removes the table (paper §III-C DROP) while honoring the MVCC
// contract: instead of deleting master files out from under pinned
// scans, it hands the current manifest's files to the DFS's deferred
// deletion (a scan that pinned its snapshot before the DROP completes
// byte-identically), marks the table state dropped so new snapshot
// opens fail immediately, and defers the rest of the reclamation —
// attached KV table, manifest chain, metadata row, master directory —
// until the last pinned snapshot releases. The engine removes the
// metastore descriptor first, so new scans and writes see
// ErrTableNotFound the moment the DROP statement runs.
func (h *Handler) Drop(desc *metastore.TableDesc) error {
	st := h.state(desc.Name)
	// Serialize against writers: an INSERT/EDIT/COMPACT in flight
	// finishes (or aborts) before the table goes away.
	st.writer.Lock()
	defer st.writer.Unlock()

	st.pub.Lock()
	if st.dropped {
		st.pub.Unlock()
		return nil // already dropped (idempotent)
	}
	man, manErr := h.e.MS.CurrentManifest(desc.Name)
	chain, _ := h.e.MS.ManifestHistoryFiles(desc.Name)
	st.dropped = true
	job := &dropJob{
		table:     desc.Name,
		attached:  attachedName(desc),
		metaRow:   metaRow(desc),
		masterDir: masterDir(desc),
		location:  desc.Location,
	}
	job.chainID, job.hasChain = h.e.MS.ManifestChainID(desc.Name)
	// Time travel dies with the table: release the retention pin of
	// every chain file the current manifest no longer names, so the
	// files' deferred deletions can fire once scans let go.
	if manErr == nil {
		for _, f := range man.Files {
			delete(chain, f.Path)
		}
	}
	retained := make([]string, 0, len(chain))
	for p := range chain {
		retained = append(retained, p)
	}
	sort.Strings(retained) // one DFS op order for the fault schedule
	for _, p := range retained {
		h.unpinDeferred(p)
	}
	st.res = nil
	reclaimNow := st.snaps == 0
	if !reclaimNow {
		st.pendingDrop = job
	}
	st.pub.Unlock()

	// Condemn the current manifest's files: removed immediately unless
	// a pinned snapshot still reads them. Transient faults retry; a
	// path that still fails lands in the condemned ledger so a later
	// publish or recovery scan re-drives it.
	if manErr == nil {
		for _, f := range man.Files {
			if err := h.removeMasterFile(f.Path); err != nil {
				h.condemn(f.Path)
			}
		}
	}
	if reclaimNow {
		// Best effort: the tombstone already committed (the engine
		// removed the descriptor before calling Drop), so a failed
		// cleanup step must not fail the statement — the table would
		// be gone from the namespace yet report an error, and the DROP
		// is not retryable through SQL. A missed step only leaks
		// storage, the same stance publish takes for post-swap
		// cleanup.
		_ = h.reclaim(job)
	}
	return nil
}

// reclaim finishes a DROP once no snapshot pins the table: it removes
// the incarnation's attached KV table, manifest chain, file-ID counter
// row and master directory, then the table location itself when
// nothing else (a newer incarnation) lives there.
func (h *Handler) reclaim(job *dropJob) error {
	var firstErr error
	if h.e.KV.HasTable(job.attached) {
		if err := h.e.KV.DropTable(job.attached); err != nil {
			firstErr = err
		}
	}
	if job.hasChain {
		h.e.MS.DropManifestsByID(job.table, job.chainID)
	}
	if err := h.meta.DeleteRow(job.metaRow, nil); err != nil && firstErr == nil {
		firstErr = err
	}
	if h.e.FS.Exists(job.masterDir) {
		err := retryDFS(func() error { return h.e.FS.Delete(job.masterDir, true) })
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Best effort: the location root goes away only when empty (a
	// re-created incarnation keeps its own master directory there).
	if h.e.FS.Exists(job.location) {
		_ = h.e.FS.Delete(job.location, false)
	}
	return firstErr
}

// attached returns the table's attached kv table.
func (h *Handler) attached(desc *metastore.TableDesc) (*kvstore.Table, error) {
	return h.e.KV.Table(attachedName(desc))
}

// reserveFileIDs allocates n consecutive file IDs from the system
// metadata table (paper §V-B: "we maintain an incremental integer file
// ID for each DualTable in the system wide metadata table") with one Get
// and one Put, and returns the first.
func (h *Handler) reserveFileIDs(desc *metastore.TableDesc, n int, m *sim.Meter) (uint32, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	row := metaRow(desc)
	cells, err := h.meta.Get(row, m)
	if err != nil {
		return 0, err
	}
	next := uint32(1)
	for _, c := range cells {
		if string(c.Qualifier) == "nextfile" {
			var v uint64
			fmt.Sscanf(string(c.Value), "%d", &v)
			next = uint32(v)
			break // cells are newest-version-first
		}
	}
	err = h.meta.PutRow(row, attachedFamily,
		map[string][]byte{"nextfile": []byte(fmt.Sprintf("%d", next+uint32(n)))}, m)
	if err != nil {
		return 0, err
	}
	return next, nil
}

// masterFile describes one master ORC file.
type masterFile struct {
	path   string
	size   int64
	fileID uint32
	rows   int64
	reader *orcfile.Reader
}

// Splits returns UNION READ splits: one per master file, each merging
// the ORC rows with the attached table's modifications for that
// file's record ID range (paper §III-C UNION READ, §V-B). The splits
// read a pinned snapshot of the current epoch — or, when
// opts.AsOfEpoch is set, of that historical epoch (AS OF EPOCH reads)
// — and the returned release function unpins it once the scan's job
// has consumed the splits. Until then a concurrent COMPACT/OVERWRITE
// may publish new epochs freely — the pinned files outlive their
// manifest via the DFS's deferred deletion, so the scan completes
// against the exact epoch it opened.
func (h *Handler) Splits(desc *metastore.TableDesc, opts ScanOptions) ([]mapred.InputSplit, func(), error) {
	snap, err := h.open(desc, opts.AsOfEpoch)
	if err != nil {
		return nil, nil, err
	}
	return snap.Splits(opts), snap.Release, nil
}

// ScanOptions aliases hive.ScanOptions (same package shape).
type ScanOptions = hive.ScanOptions

// RowCount sums the current manifest's row counts (visible rows may
// be fewer if delete markers exist; the cost model wants the master
// size). Manifest-backed, so no footer I/O.
func (h *Handler) RowCount(desc *metastore.TableDesc) (int64, error) {
	man, err := h.currentManifest(desc)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, f := range man.Files {
		total += f.Rows
	}
	return total, nil
}

// DataSize returns the master table byte size (D in the cost model):
// the current manifest's file sizes, which — unlike a directory du —
// exclude in-flight staged writes and condemned pre-compaction files
// awaiting deferred deletion.
func (h *Handler) DataSize(desc *metastore.TableDesc) (int64, error) {
	man, err := h.currentManifest(desc)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, f := range man.Files {
		total += f.Size
	}
	return total, nil
}

// currentManifest resolves the current manifest under the publish
// lock.
func (h *Handler) currentManifest(desc *metastore.TableDesc) (*metastore.Manifest, error) {
	st := h.state(desc.Name)
	st.pub.Lock()
	defer st.pub.Unlock()
	return h.e.MS.CurrentManifest(desc.Name)
}

// AttachedEntryCount returns the number of attached-table cells that
// belong to the current manifest's master files (UNION READ overhead
// indicator), counted over those files' ranges — O(live delta), the
// very quantity being measured. Cells keyed by superseded file IDs —
// kept alive only so time-travel reads inside the retention window can
// reconstruct old epochs — do not count: they are invisible to current
// scans.
func (h *Handler) AttachedEntryCount(desc *metastore.TableDesc) (int64, error) {
	att, err := h.attached(desc)
	if err != nil {
		return 0, err
	}
	man, err := h.currentManifest(desc)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, f := range man.Files {
		start, end := FileRange(f.FileID)
		sc := att.NewScanner(kvstore.Scan{Start: start, End: end, MaxVersions: math.MaxInt32})
		for {
			if _, ok := sc.Next(); !ok {
				break
			}
			total++
		}
		if err := sc.Close(); err != nil {
			return 0, fmt.Errorf("core: count attached entries of %s: %w", desc.Name, err)
		}
	}
	return total, nil
}

// Append returns a factory writing new master files, each with a
// freshly allocated file ID (paper §III-C LOAD/INSERT: "data are
// loaded and inserted into the Master Table"). The files land in the
// master directory but stay invisible to scans until Commit publishes
// a new epoch appending them to the manifest; Abort deletes them.
// The per-table writer lock is held from here to Commit/Abort, so
// appends serialize against OVERWRITE and COMPACT — while snapshot
// scans proceed untouched.
func (h *Handler) Append(desc *metastore.TableDesc) (mapred.OutputFactory, hive.Committer, error) {
	st := h.state(desc.Name)
	st.writer.Lock()
	factory := &masterOutputFactory{h: h, desc: desc, dir: masterDir(desc)}
	return factory, &publishCommitter{h: h, desc: desc, factory: factory,
		unlock: st.writer.Unlock, replace: false}, nil
}

// Overwrite writes a fresh master file set and, on Commit, atomically
// swaps the manifest to exactly that set and clears the attached
// table — the OVERWRITE plan's storage semantics (§III-C: "replace
// the existing Master Table and Attached Table with a newly generated
// Master Table and an empty Attached Table"). No staging directory is
// needed: manifest publication is the commit point, and superseded
// files are removed by deferred deletion once no snapshot pins them.
func (h *Handler) Overwrite(desc *metastore.TableDesc) (mapred.OutputFactory, hive.Committer, error) {
	st := h.state(desc.Name)
	st.writer.Lock()
	factory := &masterOutputFactory{h: h, desc: desc, dir: masterDir(desc)}
	return factory, &publishCommitter{h: h, desc: desc, factory: factory,
		unlock: st.writer.Unlock, replace: true}, nil
}

// publishCommitter finalizes a bulk write by publishing a new epoch:
// append mode adds the written files to the manifest, replace mode
// (OVERWRITE) swaps the file set wholesale. Abort deletes the written
// files; nothing was published, so the table is untouched.
type publishCommitter struct {
	h       *Handler
	desc    *metastore.TableDesc
	factory *masterOutputFactory
	unlock  func()
	replace bool
}

func (c *publishCommitter) Commit() error {
	defer c.unlock()
	if err := c.h.publish(c.desc, c.factory.files(), c.replace); err != nil {
		// The manifest swap is the commit point and it did not happen:
		// the staged files are invisible and must not outlive the
		// statement (callers report the publish error and move on, so
		// nobody else will ever discard them).
		_ = c.factory.discard()
		return err
	}
	return nil
}

func (c *publishCommitter) Abort() error {
	defer c.unlock()
	return c.factory.discard()
}

// masterOutputFactory writes ORC master files with allocated file
// IDs, tracking every file it creates so the committer can publish
// (or discard) exactly that set. Its job reserves the IDs before any
// task starts and task first+i writes file ID base+i, so a rewrite's
// files and manifest depend on its input and plan, not on the order
// its tasks finish in.
type masterOutputFactory struct {
	h    *Handler
	desc *metastore.TableDesc
	dir  string

	first int    // the first task of the reservation
	base  uint32 // its file ID

	mu      sync.Mutex
	written []metastore.ManifestFile
	// opened tracks files created but not yet recorded: a task that
	// errors out (or a torn write) leaves its in-flight file unclosed
	// and unrecorded, and discard must reclaim those too.
	opened map[string]bool
}

func (f *masterOutputFactory) Reserve(first, n int, m *sim.Meter) error {
	if n == 0 {
		return nil
	}
	base, err := f.h.reserveFileIDs(f.desc, n, m)
	f.first, f.base = first, base
	return err
}

func (f *masterOutputFactory) NewCollector(taskID int, m *sim.Meter) (mapred.Collector, error) {
	if f.base == 0 {
		return nil, fmt.Errorf("core: %s: task %d writes before its job reserved file IDs", f.desc.Name, taskID)
	}
	fid := f.base + uint32(taskID-f.first)
	return &hive.ORCTaskWriter{FS: f.h.e.FS, Schema: f.desc.Schema, Meter: m,
		Create: func() (string, uint32, map[string]string, error) {
			p := path.Join(f.dir, fmt.Sprintf("m-%08d.orc", fid))
			f.noteOpened(p)
			return p, fid, map[string]string{fileIDMetaKey: fmt.Sprintf("%d", fid)}, nil
		},
		Finished: func(p string, rows int64) error {
			fi, err := f.h.e.FS.Stat(p)
			if err != nil {
				return err
			}
			f.record(metastore.ManifestFile{Path: p, Size: fi.Size, FileID: fid, Rows: rows})
			return nil
		}}, nil
}

// noteOpened registers an in-flight file just before it is created
// (discard treats a path that never came to exist as already removed).
func (f *masterOutputFactory) noteOpened(p string) {
	f.mu.Lock()
	if f.opened == nil {
		f.opened = map[string]bool{}
	}
	f.opened[p] = true
	f.mu.Unlock()
}

// record registers one finished master file.
func (f *masterOutputFactory) record(mf metastore.ManifestFile) {
	f.mu.Lock()
	f.written = append(f.written, mf)
	delete(f.opened, mf.Path)
	f.mu.Unlock()
}

// files returns the manifest entries of everything written, ordered
// by file ID so manifests are deterministic regardless of task
// completion order.
func (f *masterOutputFactory) files() []metastore.ManifestFile {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := append([]metastore.ManifestFile(nil), f.written...)
	sort.Slice(out, func(i, j int) bool { return out[i].FileID < out[j].FileID })
	return out
}

// discard deletes every file this factory created — finished and
// in-flight alike (abort path; none were published). Abandoned write
// leases are recovered, transient faults retried, and paths that still
// fail are condemned to the handler ledger, so an abort never leaks a
// staged file no matter how the DFS misbehaves.
func (f *masterOutputFactory) discard() error {
	f.mu.Lock()
	paths := make([]string, 0, len(f.written)+len(f.opened))
	for _, mf := range f.written {
		paths = append(paths, mf.Path)
	}
	for p := range f.opened {
		paths = append(paths, p)
	}
	f.written = nil
	f.opened = nil
	f.mu.Unlock()

	var firstErr error
	for _, p := range paths {
		if err := f.h.removeMasterFile(p); err != nil {
			f.h.condemn(p)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
