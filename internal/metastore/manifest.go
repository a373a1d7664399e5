package metastore

import (
	"errors"
	"fmt"
	"strings"
)

// Manifest errors.
var (
	// ErrNoManifest is returned when a table has no manifest chain yet.
	ErrNoManifest = errors.New("metastore: table has no manifest")
	// ErrEpochConflict is returned when a publish loses the
	// compare-and-swap on the current epoch (another writer published
	// first).
	ErrEpochConflict = errors.New("metastore: manifest epoch conflict")
	// ErrEpochExpired is returned when a historical epoch has left the
	// retention window: its manifest is no longer in the chain, and the
	// files and attached cells only it named are reclaimed.
	ErrEpochExpired = errors.New("metastore: manifest epoch expired")
	// ErrEpochFuture is returned when the requested epoch was never
	// published: it lies beyond the table's current epoch.
	ErrEpochFuture = errors.New("metastore: manifest epoch not published yet")
)

// RetentionEpochs is the retention window: an epoch e is serviceable
// (AS OF EPOCH reads, and scans racing a COMPACT) while
// current-e <= RetentionEpochs. A table's manifest chain is the window:
// it holds exactly the current manifest and the RetentionEpochs
// manifests before it, and a superseded master file (with the attached
// cells keyed by it) stays in place while a manifest in the chain names
// it.
const RetentionEpochs = 8

// ManifestFile describes one immutable master file of a snapshot.
type ManifestFile struct {
	Path   string
	Size   int64
	FileID uint32
	Rows   int64
}

// Manifest is one immutable, epoch-numbered snapshot of a table's
// storage: the exact master file set plus the attached-table watermark
// (the key-value timestamp up to which attached modifications belong
// to this epoch). Writers publish a new manifest with an atomic
// compare-and-swap instead of mutating file lists in place; scans
// resolve one manifest at open and read those exact files to
// completion, so a snapshot read is repeatable regardless of
// concurrent COMPACT or OVERWRITE.
type Manifest struct {
	Table string
	Epoch uint64
	// Watermark is the attached-table visibility ceiling: a scan
	// pinned at this epoch applies only attached cells with
	// timestamp <= Watermark.
	Watermark uint64
	Files     []ManifestFile
}

// Clone deep-copies the manifest.
func (m *Manifest) Clone() *Manifest {
	cp := *m
	cp.Files = append([]ManifestFile(nil), m.Files...)
	return &cp
}

// manifestChain is one table's retention window: the current manifest
// and the RetentionEpochs manifests before it, oldest first, with
// consecutive epochs. The id is unique per chain incarnation: a DROP
// whose reclamation is pending records it, so a deferred chain removal
// cannot destroy the chain a re-CREATE of the same name published
// meanwhile.
type manifestChain struct {
	id     uint64
	window []*Manifest
}

// current returns the chain's newest manifest.
func (ch *manifestChain) current() *Manifest { return ch.window[len(ch.window)-1] }

// push makes man the current manifest. When that takes the chain past
// the window, the oldest manifest leaves it, and push returns the files
// that manifest named and no manifest left in the chain names: their
// last serviceable epoch just left the window.
func (ch *manifestChain) push(man *Manifest) []ManifestFile {
	if len(ch.window) <= RetentionEpochs {
		ch.window = append(ch.window, man)
		return nil
	}
	gone := ch.window[0].Files
	copy(ch.window, ch.window[1:])
	ch.window[len(ch.window)-1] = man
	// A watermark or append publish keeps the files before it as a
	// prefix, so unless a replace left the window this compares paths
	// and allocates nothing.
	next := ch.window[0].Files
	kept := len(gone) <= len(next)
	for i := 0; kept && i < len(gone); i++ {
		kept = gone[i].Path == next[i].Path
	}
	if kept {
		return nil
	}
	named := ch.files()
	var expired []ManifestFile
	for _, f := range gone {
		if !named[f.Path] {
			expired = append(expired, f)
		}
	}
	return expired
}

// files returns the paths the chain's manifests name.
func (ch *manifestChain) files() map[string]bool {
	files := map[string]bool{}
	for _, man := range ch.window {
		for _, f := range man.Files {
			files[f.Path] = true
		}
	}
	return files
}

// manifests lazily allocates the manifest map. Caller holds m.mu.
func (m *Metastore) manifestsLocked() map[string]*manifestChain {
	if m.manifests == nil {
		m.manifests = map[string]*manifestChain{}
	}
	return m.manifests
}

// PublishManifest installs a new current manifest for the table with
// compare-and-swap semantics: the new epoch must be exactly one past
// the current epoch (or any starting epoch when the table has no
// chain yet). On success the previous manifest stays readable through
// ManifestAt while it is inside the retention window. It returns the
// files whose last serviceable epoch this publish took out of the
// window (see manifestChain.push); the caller reclaims them.
func (m *Metastore) PublishManifest(man *Manifest) ([]ManifestFile, error) {
	if man.Table == "" {
		return nil, fmt.Errorf("metastore: manifest without table name")
	}
	key := strings.ToLower(man.Table)
	m.mu.Lock()
	defer m.mu.Unlock()
	chains := m.manifestsLocked()
	ch, ok := chains[key]
	cp := man.Clone()
	if !ok {
		m.chainSeq++
		window := make([]*Manifest, 1, RetentionEpochs+1)
		window[0] = cp
		chains[key] = &manifestChain{id: m.chainSeq, window: window}
		return nil, nil
	}
	if cur := ch.current(); man.Epoch != cur.Epoch+1 {
		return nil, fmt.Errorf("%w: %s publish epoch %d, current %d",
			ErrEpochConflict, man.Table, man.Epoch, cur.Epoch)
	}
	return ch.push(cp), nil
}

// PublishWatermark publishes the next epoch with the current file set
// unchanged and a fresh watermark — the EDIT DML commit point. Unlike
// PublishManifest, it shares the current manifest's file slice instead
// of copying it twice (manifests are immutable after publish, and
// every read path hands out clones), so a watermark-only commit does
// no per-file work at all. Returns the published epoch and, as
// PublishManifest does, the files that left the retention window.
func (m *Metastore) PublishWatermark(table string, watermark uint64) (uint64, []ManifestFile, error) {
	key := strings.ToLower(table)
	m.mu.Lock()
	defer m.mu.Unlock()
	ch, ok := m.manifests[key]
	if !ok {
		return 0, nil, fmt.Errorf("%w: %s", ErrNoManifest, table)
	}
	cur := ch.current()
	next := &Manifest{
		Table:     cur.Table,
		Epoch:     cur.Epoch + 1,
		Watermark: watermark,
		Files:     cur.Files, // shared; manifests are immutable
	}
	return next.Epoch, ch.push(next), nil
}

// CurrentManifest returns a copy of the table's current manifest.
func (m *Metastore) CurrentManifest(table string) (*Manifest, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ch, ok := m.manifests[strings.ToLower(table)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoManifest, table)
	}
	return ch.current().Clone(), nil
}

// CurrentEpoch returns the epoch and watermark of the table's current
// manifest, for callers that need its identity and not its file list.
func (m *Metastore) CurrentEpoch(table string) (epoch, watermark uint64, err error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ch, ok := m.manifests[strings.ToLower(table)]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %s", ErrNoManifest, table)
	}
	cur := ch.current()
	return cur.Epoch, cur.Watermark, nil
}

// ManifestAt returns a copy of the manifest at a historical epoch
// (the basis for time-travel reads): it resolves exactly the epochs of
// the retention window. The two failure modes carry distinct
// sentinels: an epoch older than the window returns ErrEpochExpired,
// an epoch beyond the current one (never published) ErrEpochFuture.
func (m *Metastore) ManifestAt(table string, epoch uint64) (*Manifest, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ch, ok := m.manifests[strings.ToLower(table)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoManifest, table)
	}
	oldest, cur := ch.window[0].Epoch, ch.current().Epoch
	switch {
	case epoch < oldest:
		return nil, fmt.Errorf("%w: %s epoch %d is outside the retention window of %d epochs (current %d)",
			ErrEpochExpired, table, epoch, RetentionEpochs, cur)
	case epoch > cur:
		return nil, fmt.Errorf("%w: %s epoch %d (current %d)",
			ErrEpochFuture, table, epoch, cur)
	}
	return ch.window[epoch-oldest].Clone(), nil
}

// ManifestHistoryFiles returns the set of file paths named by any
// manifest in the table's chain — exactly the files the retention
// window can serve to a current or time-travel read. ok is false when
// the table has no manifest chain. The startup recovery scan treats
// master files outside this set as orphans.
func (m *Metastore) ManifestHistoryFiles(table string) (map[string]bool, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ch, ok := m.manifests[strings.ToLower(table)]
	if !ok {
		return nil, false
	}
	return ch.files(), true
}

// ManifestChainID returns the identity of the table's current manifest
// chain (false when the table has no chain). A pin-aware DROP records
// it so the deferred chain removal at last-pin release cannot destroy
// a chain a re-CREATE published under the same name meanwhile.
func (m *Metastore) ManifestChainID(table string) (uint64, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ch, ok := m.manifests[strings.ToLower(table)]
	if !ok {
		return 0, false
	}
	return ch.id, true
}

// DropManifests removes a table's manifest chain (DROP TABLE).
func (m *Metastore) DropManifests(table string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.manifests, strings.ToLower(table))
}

// DropManifestsByID removes the table's manifest chain only when its
// identity still matches — the deferred-reclamation path of a
// pin-aware DROP. A chain republished by a re-CREATE (different id)
// is left untouched.
func (m *Metastore) DropManifestsByID(table string, id uint64) {
	key := strings.ToLower(table)
	m.mu.Lock()
	defer m.mu.Unlock()
	if ch, ok := m.manifests[key]; ok && ch.id == id {
		delete(m.manifests, key)
	}
}
