package metastore

import (
	"errors"
	"fmt"
	"testing"
)

func publishN(t *testing.T, m *Metastore, table string, upto uint64) {
	t.Helper()
	for e := uint64(0); e <= upto; e++ {
		_, err := m.PublishManifest(&Manifest{Table: table, Epoch: e, Watermark: e * 10,
			Files: []ManifestFile{{Path: "/f", FileID: uint32(e)}}})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestManifestAtErrorSentinels(t *testing.T) {
	m := New()
	publishN(t, m, "t", 3)
	// Present epochs resolve.
	man, err := m.ManifestAt("t", 2)
	if err != nil || man.Epoch != 2 {
		t.Fatalf("ManifestAt(2) = %v, %v", man, err)
	}
	// Future epoch: never published.
	if _, err := m.ManifestAt("t", 9); !errors.Is(err, ErrEpochFuture) {
		t.Fatalf("future epoch error = %v, want ErrEpochFuture", err)
	}
	if _, err := m.ManifestAt("t", 9); errors.Is(err, ErrEpochExpired) {
		t.Fatal("future epoch must not also match ErrEpochExpired")
	}
	// Aged-out epoch: publish past the retention window.
	for e := uint64(4); e <= RetentionEpochs+5; e++ {
		if _, err := m.PublishManifest(&Manifest{Table: "t", Epoch: e}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.ManifestAt("t", 0); !errors.Is(err, ErrEpochExpired) {
		t.Fatalf("aged-out epoch error = %v, want ErrEpochExpired", err)
	}
	// Unknown table.
	if _, err := m.ManifestAt("nope", 0); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("unknown table error = %v, want ErrNoManifest", err)
	}
}

func TestPublishWatermarkSharesFileSet(t *testing.T) {
	m := New()
	publishN(t, m, "t", 1)
	before, _ := m.CurrentManifest("t")
	ep, _, err := m.PublishWatermark("t", 777)
	if err != nil || ep != 2 {
		t.Fatalf("PublishWatermark = %d, %v", ep, err)
	}
	cur, _ := m.CurrentManifest("t")
	if cur.Epoch != 2 || cur.Watermark != 777 {
		t.Fatalf("current = %+v", cur)
	}
	if len(cur.Files) != len(before.Files) || cur.Files[0] != before.Files[0] {
		t.Fatalf("watermark publish changed the file set: %+v", cur.Files)
	}
	// The previous epoch stays in history with its old watermark.
	old, err := m.ManifestAt("t", 1)
	if err != nil || old.Watermark != 10 {
		t.Fatalf("ManifestAt(1) = %+v, %v", old, err)
	}
	// A regular CAS publish still applies after the fast path.
	if _, err := m.PublishManifest(&Manifest{Table: "t", Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.PublishWatermark("missing", 1); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("watermark on missing table = %v, want ErrNoManifest", err)
	}
}

func TestManifestChainIdentity(t *testing.T) {
	m := New()
	publishN(t, m, "t", 0)
	id1, ok := m.ManifestChainID("t")
	if !ok {
		t.Fatal("no chain id")
	}
	// A re-created chain gets a new identity; the stale id no longer
	// deletes it (the deferred-DROP safety property).
	m.DropManifests("t")
	publishN(t, m, "t", 0)
	id2, ok := m.ManifestChainID("t")
	if !ok || id2 == id1 {
		t.Fatalf("chain ids: %d then %d, want distinct", id1, id2)
	}
	m.DropManifestsByID("t", id1) // stale: must be a no-op
	if _, err := m.CurrentManifest("t"); err != nil {
		t.Fatalf("stale DropManifestsByID removed the live chain: %v", err)
	}
	m.DropManifestsByID("t", id2)
	if _, err := m.CurrentManifest("t"); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("matching DropManifestsByID left the chain: %v", err)
	}
}

// TestPublishReturnsExpiredFiles drives append, watermark and replace
// publishes and checks what each one returns: a replaced file comes
// back exactly once, from the publish RetentionEpochs after its
// replace, and every other publish returns nothing.
func TestPublishReturnsExpiredFiles(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  string // a = append one file, w = watermark, r = replace with one file, e = replace with none
	}{
		{"watermarks", "wwwwwwwwwwwwwwwwwwww"},
		{"appends", "aaaaaaaaaaaaaaaaaaaa"},
		{"replace every publish", "rrrrrrrrrrrrrrrrrrrr"},
		{"replace then quiet", "aarwwwwwwwwwwwwwwwwww"},
		{"replaces inside one window", "aawrawraawwrwwwwwwwwwwwwww"},
		{"replace by nothing", "aaewwaaewwwwwwwwwwwwww"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New()
			if _, err := m.PublishManifest(&Manifest{Table: "t", Epoch: 0}); err != nil {
				t.Fatal(err)
			}
			var files []ManifestFile
			nextFile := 0
			newFile := func() ManifestFile {
				nextFile++
				return ManifestFile{Path: fmt.Sprintf("/t/m-%d", nextFile), FileID: uint32(nextFile)}
			}
			replacedAt := map[uint64][]ManifestFile{} // epoch of the replace -> the files it took out
			returned := map[string]int{}
			for i, op := range tc.ops {
				epoch := uint64(i + 1)
				var expired []ManifestFile
				var err error
				switch op {
				case 'w':
					var got uint64
					got, expired, err = m.PublishWatermark("t", epoch)
					if err == nil && got != epoch {
						t.Fatalf("watermark publish %d published epoch %d", epoch, got)
					}
				default:
					next := append([]ManifestFile(nil), files...)
					switch op {
					case 'a':
						next = append(next, newFile())
					case 'r':
						replacedAt[epoch], next = files, []ManifestFile{newFile()}
					case 'e':
						replacedAt[epoch], next = files, nil
					}
					files = next
					expired, err = m.PublishManifest(&Manifest{Table: "t", Epoch: epoch, Files: next})
				}
				if err != nil {
					t.Fatal(err)
				}
				var want []ManifestFile
				if epoch > RetentionEpochs {
					want = replacedAt[epoch-RetentionEpochs]
				}
				if len(expired) != len(want) {
					t.Fatalf("publish %d (%c) returned %v, want %v", epoch, op, expired, want)
				}
				for j := range want {
					if expired[j] != want[j] {
						t.Fatalf("publish %d (%c) returned %v, want %v", epoch, op, expired, want)
					}
					returned[want[j].Path]++
				}
			}
			for epoch, gone := range replacedAt {
				if epoch+RetentionEpochs > uint64(len(tc.ops)) {
					continue // still inside the window at the end
				}
				for _, f := range gone {
					if returned[f.Path] != 1 {
						t.Errorf("file %s replaced at epoch %d came back %d times, want once", f.Path, epoch, returned[f.Path])
					}
				}
			}
		})
	}
}
