package metastore

import (
	"errors"
	"testing"

	"dualtable/internal/datum"
)

func desc(name string) *TableDesc {
	return &TableDesc{
		Name:    name,
		Schema:  datum.Schema{{Name: "id", Kind: datum.KindInt}, {Name: "v", Kind: datum.KindFloat}},
		Storage: StorageORC,
	}
}

func TestCreateGetDrop(t *testing.T) {
	m := New()
	if err := m.Create(desc("T1")); err != nil {
		t.Fatal(err)
	}
	// Case-insensitive lookup, like Hive.
	d, err := m.Get("t1")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "T1" || len(d.Schema) != 2 {
		t.Errorf("got %+v", d)
	}
	if !m.Exists("T1") || !m.Exists("t1") {
		t.Error("Exists should be case-insensitive")
	}
	if err := m.Create(desc("t1")); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate create = %v", err)
	}
	if err := m.Drop("T1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("t1"); !errors.Is(err, ErrTableNotFound) {
		t.Errorf("get after drop = %v", err)
	}
	if err := m.Drop("t1"); !errors.Is(err, ErrTableNotFound) {
		t.Errorf("double drop = %v", err)
	}
}

func TestCreateValidation(t *testing.T) {
	m := New()
	if err := m.Create(&TableDesc{Name: "", Schema: datum.Schema{{Name: "a", Kind: datum.KindInt}}}); err == nil {
		t.Error("empty name should fail")
	}
	if err := m.Create(&TableDesc{Name: "t"}); err == nil {
		t.Error("empty schema should fail")
	}
	dup := &TableDesc{Name: "t", Schema: datum.Schema{
		{Name: "a", Kind: datum.KindInt}, {Name: "A", Kind: datum.KindFloat}}}
	if err := m.Create(dup); err == nil {
		t.Error("duplicate column (case-insensitive) should fail")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	m := New()
	m.Create(desc("t"))
	d1, _ := m.Get("t")
	d1.Schema[0].Name = "mutated"
	d1.Properties["x"] = "y"
	d2, _ := m.Get("t")
	if d2.Schema[0].Name != "id" {
		t.Error("Get must return a copy of the schema")
	}
	if _, ok := d2.Properties["x"]; ok {
		t.Error("Get must return a copy of the properties")
	}
}

func TestListSorted(t *testing.T) {
	m := New()
	m.Create(desc("zeta"))
	m.Create(desc("alpha"))
	got := m.List()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Errorf("List = %v", got)
	}
}

func TestStorageKindNames(t *testing.T) {
	cases := map[string]StorageKind{
		"": StorageORC, "ORC": StorageORC, "HBASE": StorageKV, "kv": StorageKV,
		"DUALTABLE": StorageDual, "dual": StorageDual,
		"TEXTFILE": StorageText, "ACID": StorageAcid,
	}
	for name, want := range cases {
		got, err := KindFromName(name)
		if err != nil || got != want {
			t.Errorf("KindFromName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := KindFromName("PARQUET"); err == nil {
		t.Error("unknown format should fail")
	}
	for _, k := range []StorageKind{StorageORC, StorageKV, StorageDual, StorageText, StorageAcid} {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
		back, err := KindFromName(k.String())
		if err != nil || back != k {
			t.Errorf("roundtrip %v: %v %v", k, back, err)
		}
	}
}

func TestManifestPublishCAS(t *testing.T) {
	m := New()
	base := &Manifest{Table: "T", Epoch: 0, Watermark: 5,
		Files: []ManifestFile{{Path: "/w/t/master/m-1.orc", Size: 100, FileID: 1, Rows: 10}}}
	if _, err := m.PublishManifest(base); err != nil {
		t.Fatal(err)
	}
	// Names are case-insensitive, manifests are copies.
	cur, err := m.CurrentManifest("t")
	if err != nil {
		t.Fatal(err)
	}
	cur.Files[0].Path = "mutated"
	cur2, _ := m.CurrentManifest("T")
	if cur2.Files[0].Path != "/w/t/master/m-1.orc" {
		t.Error("CurrentManifest must return a copy")
	}
	// CAS: skipping an epoch or republishing the same epoch fails.
	if _, err := m.PublishManifest(&Manifest{Table: "t", Epoch: 0}); !errors.Is(err, ErrEpochConflict) {
		t.Errorf("same-epoch publish: %v", err)
	}
	if _, err := m.PublishManifest(&Manifest{Table: "t", Epoch: 2}); !errors.Is(err, ErrEpochConflict) {
		t.Errorf("skipped-epoch publish: %v", err)
	}
	if _, err := m.PublishManifest(&Manifest{Table: "t", Epoch: 1, Watermark: 9}); err != nil {
		t.Fatal(err)
	}
	// History: both epochs resolvable; unknown table and future epoch
	// fail.
	old, err := m.ManifestAt("t", 0)
	if err != nil || len(old.Files) != 1 {
		t.Fatalf("ManifestAt(0): %v", err)
	}
	if _, err := m.ManifestAt("t", 7); err == nil {
		t.Error("future epoch should fail")
	}
	if _, err := m.CurrentManifest("nope"); !errors.Is(err, ErrNoManifest) {
		t.Errorf("missing chain: %v", err)
	}
	// Drop clears the chain; a fresh epoch-0 publish then succeeds.
	m.DropManifests("T")
	if _, err := m.CurrentManifest("t"); !errors.Is(err, ErrNoManifest) {
		t.Errorf("after drop: %v", err)
	}
	if _, err := m.PublishManifest(&Manifest{Table: "t", Epoch: 0}); err != nil {
		t.Errorf("re-create after drop: %v", err)
	}
}

func TestManifestHistoryBounded(t *testing.T) {
	m := New()
	if _, err := m.PublishManifest(&Manifest{Table: "t", Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 200; e++ {
		if _, err := m.PublishManifest(&Manifest{Table: "t", Epoch: e}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.ManifestAt("t", 200); err != nil {
		t.Errorf("current epoch must stay resolvable: %v", err)
	}
	if _, err := m.ManifestAt("t", 0); !errors.Is(err, ErrEpochExpired) {
		t.Errorf("ancient epoch should be expired: %v", err)
	}
	// Both sides of the window's edge, and nothing kept beyond it.
	if man, err := m.ManifestAt("t", 200-RetentionEpochs); err != nil || man.Epoch != 200-RetentionEpochs {
		t.Errorf("the window's oldest epoch = %v, %v", man, err)
	}
	if _, err := m.ManifestAt("t", 200-RetentionEpochs-1); !errors.Is(err, ErrEpochExpired) {
		t.Errorf("the epoch below the window = %v, want ErrEpochExpired", err)
	}
	if n := len(m.manifests["t"].window); n != RetentionEpochs+1 {
		t.Errorf("the chain holds %d manifests, want %d", n, RetentionEpochs+1)
	}
}
