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
	// ErrEpochExpired is returned when a historical epoch has been
	// garbage-collected from the chain (or its files have been
	// reclaimed past the retention window).
	ErrEpochExpired = errors.New("metastore: manifest epoch expired")
	// ErrEpochFuture is returned when the requested epoch was never
	// published: it lies beyond the table's current epoch.
	ErrEpochFuture = errors.New("metastore: manifest epoch not published yet")
)

// RetentionEpochs is the retention window: an epoch e is serviceable
// (AS OF EPOCH reads, and scans racing a COMPACT) while
// current-e <= RetentionEpochs, and the superseded master files and
// attached cells those epochs need stay in place until then. It is
// below manifestHistoryCap, so every epoch in the window still has its
// manifest.
const RetentionEpochs = 8

// manifestHistoryCap bounds the per-table manifest chain kept for
// historical lookups (ManifestAt). The current manifest never expires.
const manifestHistoryCap = 64

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

// manifestChain is one table's epoch history, newest last. The id is
// unique per chain incarnation: a DROP whose reclamation is pending
// records it, so a deferred chain removal cannot destroy the chain a
// re-CREATE of the same name published meanwhile.
type manifestChain struct {
	id      uint64
	current *Manifest
	history []*Manifest // includes current as the last element
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
// ManifestAt until it ages out of the bounded history.
func (m *Metastore) PublishManifest(man *Manifest) error {
	if man.Table == "" {
		return fmt.Errorf("metastore: manifest without table name")
	}
	key := strings.ToLower(man.Table)
	m.mu.Lock()
	defer m.mu.Unlock()
	chains := m.manifestsLocked()
	ch, ok := chains[key]
	cp := man.Clone()
	if !ok {
		m.chainSeq++
		chains[key] = &manifestChain{id: m.chainSeq, current: cp, history: []*Manifest{cp}}
		return nil
	}
	if man.Epoch != ch.current.Epoch+1 {
		return fmt.Errorf("%w: %s publish epoch %d, current %d",
			ErrEpochConflict, man.Table, man.Epoch, ch.current.Epoch)
	}
	ch.current = cp
	ch.history = append(ch.history, cp)
	if len(ch.history) > manifestHistoryCap {
		ch.history = ch.history[len(ch.history)-manifestHistoryCap:]
	}
	return nil
}

// PublishWatermark publishes the next epoch with the current file set
// unchanged and a fresh watermark — the EDIT DML commit point. Unlike
// PublishManifest, it shares the current manifest's file slice instead
// of copying it twice (manifests are immutable after publish, and
// every read path hands out clones), so a watermark-only commit does
// no per-file work at all. Returns the published epoch.
func (m *Metastore) PublishWatermark(table string, watermark uint64) (uint64, error) {
	key := strings.ToLower(table)
	m.mu.Lock()
	defer m.mu.Unlock()
	ch, ok := m.manifests[key]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoManifest, table)
	}
	cur := ch.current
	next := &Manifest{
		Table:     cur.Table,
		Epoch:     cur.Epoch + 1,
		Watermark: watermark,
		Files:     cur.Files, // shared; manifests are immutable
	}
	ch.current = next
	ch.history = append(ch.history, next)
	if len(ch.history) > manifestHistoryCap {
		ch.history = ch.history[len(ch.history)-manifestHistoryCap:]
	}
	return next.Epoch, nil
}

// CurrentManifest returns a copy of the table's current manifest.
func (m *Metastore) CurrentManifest(table string) (*Manifest, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ch, ok := m.manifests[strings.ToLower(table)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoManifest, table)
	}
	return ch.current.Clone(), nil
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
	return ch.current.Epoch, ch.current.Watermark, nil
}

// ManifestAt returns a copy of the manifest at a historical epoch
// (the basis for time-travel reads). The two failure modes carry
// distinct sentinels: epochs that aged out of the bounded history
// return ErrEpochExpired, epochs beyond the current one (never
// published) return ErrEpochFuture.
func (m *Metastore) ManifestAt(table string, epoch uint64) (*Manifest, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ch, ok := m.manifests[strings.ToLower(table)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoManifest, table)
	}
	for _, man := range ch.history {
		if man.Epoch == epoch {
			return man.Clone(), nil
		}
	}
	if epoch < ch.current.Epoch {
		return nil, fmt.Errorf("%w: %s epoch %d aged out of history (current %d)",
			ErrEpochExpired, table, epoch, ch.current.Epoch)
	}
	return nil, fmt.Errorf("%w: %s epoch %d (current %d)",
		ErrEpochFuture, table, epoch, ch.current.Epoch)
}

// ManifestHistoryFiles returns the set of file paths referenced by any
// manifest still in the table's bounded history — every file a current
// or time-travel read could legitimately resolve. ok is false when the
// table has no manifest chain. A startup recovery scan treats master
// files outside this set as orphans of a crashed publish.
func (m *Metastore) ManifestHistoryFiles(table string) (map[string]bool, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ch, ok := m.manifests[strings.ToLower(table)]
	if !ok {
		return nil, false
	}
	files := map[string]bool{}
	for _, man := range ch.history {
		for _, f := range man.Files {
			files[f.Path] = true
		}
	}
	return files, true
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
