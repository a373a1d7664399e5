package hive

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/dfs"
	"dualtable/internal/mapred"
	"dualtable/internal/orcfile"
	"dualtable/internal/sim"
)

var overlayFuzzSchema = datum.Schema{
	{Name: "id", Kind: datum.KindInt},
	{Name: "f", Kind: datum.KindFloat},
	{Name: "b", Kind: datum.KindBool},
	{Name: "s", Kind: datum.KindString},
}

// fuzzDatum draws a value for a column of kind k: mostly of that kind,
// sometimes NULL, and sometimes of another kind (a value the column's
// vector cannot hold).
func fuzzDatum(r *rand.Rand, k datum.Kind) datum.Datum {
	switch r.Intn(8) {
	case 0:
		return datum.Null
	case 1:
		k = datum.Kind(1 + r.Intn(4))
	}
	switch k {
	case datum.KindInt:
		return datum.Int(int64(r.Intn(2000) - 1000))
	case datum.KindFloat:
		return datum.Float(float64(r.Intn(400)) / 8)
	case datum.KindBool:
		return datum.Bool(r.Intn(2) == 0)
	default:
		return datum.String_(fmt.Sprintf("v%d", r.Intn(50)))
	}
}

// fuzzOrdinal draws a record ordinal of a file of n rows written in
// stripes of stripe rows: anywhere in the file, at a batch edge (a
// stripe's or the default batch size's), or past the file's end.
func fuzzOrdinal(r *rand.Rand, n, stripe int) uint32 {
	switch r.Intn(4) {
	case 0:
		return uint32(n + r.Intn(8))
	case 1:
		edge := stripe * r.Intn(n/stripe+1)
		return uint32(max(0, edge+r.Intn(3)-1))
	case 2:
		edge := orcfile.DefaultBatchRows * r.Intn(n/orcfile.DefaultBatchRows+1)
		return uint32(max(0, edge+r.Intn(3)-1))
	default:
		return uint32(r.Intn(n))
	}
}

// fuzzRecord is what the delta says of one record: deleted, or these
// columns set.
type fuzzRecord struct {
	deleted bool
	sets    map[int]datum.Datum
}

// overlayRecordsOf reads an overlay back as records, checking the
// layout the merge relies on: ascending ordinals in every list, patches
// by ascending column and none empty, no deleted record in a patch.
func overlayRecordsOf(t *testing.T, ov *Overlay) map[uint32]fuzzRecord {
	t.Helper()
	got := map[uint32]fuzzRecord{}
	if ov == nil {
		return got
	}
	strictly := func(ords []uint32) bool {
		for i := 1; i < len(ords); i++ {
			if ords[i] <= ords[i-1] {
				return false
			}
		}
		return true
	}
	if !strictly(ov.Deleted) {
		t.Fatalf("deleted ordinals %v are not ascending", ov.Deleted)
	}
	for _, o := range ov.Deleted {
		got[o] = fuzzRecord{deleted: true}
	}
	for i, p := range ov.Patches {
		if len(p.Ords) == 0 || !strictly(p.Ords) || p.Vals.Len() != len(p.Ords) || i > 0 && p.Col <= ov.Patches[i-1].Col {
			t.Fatalf("patch %d (column %d) is malformed: ordinals %v, %d values", i, p.Col, p.Ords, p.Vals.Len())
		}
		for k, o := range p.Ords {
			rec, ok := got[o]
			if rec.deleted {
				t.Fatalf("deleted record %d is in column %d's patch", o, p.Col)
			}
			if !ok {
				rec.sets = map[int]datum.Datum{}
				got[o] = rec
			}
			rec.sets[p.Col] = p.Vals.Datum(k)
		}
	}
	return got
}

// drainSplit opens the split and returns its rows with their record IDs
// appended, in batch or in row mode.
func drainSplit(t *testing.T, s *ORCSplit, batches bool) []string {
	t.Helper()
	rr, err := s.Open(sim.NewMeter(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	var out []string
	emit := func(row datum.Row, rid uint64) {
		out = append(out, append(row.Clone(), datum.Int(int64(rid))).String())
	}
	for {
		if batches {
			var b mapred.RecordBatch
			err = rr.(mapred.BatchRecordReader).NextBatch(&b)
			if err == nil {
				for k := range b.Live() {
					i := b.Slot(k)
					emit(b.RowInto(nil, i), b.Meta(i).RecordID)
				}
			}
		} else {
			var row datum.Row
			var meta mapred.RecordMeta
			if row, meta, err = rr.Next(); err == nil {
				emit(row, meta.RecordID)
			}
		}
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzOverlayMatchesModel: a random delta — patches of every kind,
// NULLs, values of another kind than their column's, deletes at batch
// edges, records replaced and records past the file's end — builds into
// the overlay its records say, and the ORC reader merges that overlay
// into a file of random length and stripe size (batches never span a
// stripe) under a random projection exactly as applyOverlay's model
// does, in batch mode and in row mode.
func FuzzOverlayMatchesModel(f *testing.F) {
	for seed := range int64(16) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3000)
		stripe := 1 + r.Intn(n)
		rows := make([]datum.Row, n)
		for i := range rows {
			rows[i] = datum.Row{datum.Int(int64(i)), datum.Float(float64(i) / 4), datum.Bool(i%3 == 0), datum.String_(fmt.Sprintf("r%d", i%7))}
			for c := 1; c < len(rows[i]); c++ {
				if r.Intn(10) == 0 {
					rows[i][c] = datum.Null
				}
			}
		}
		fs := dfs.New(dfs.DefaultConfig())
		fw, err := fs.Create("/f.orc")
		if err != nil {
			t.Fatal(err)
		}
		w, err := orcfile.NewWriter(fw, overlayFuzzSchema, orcfile.WriterOptions{StripeRows: stripe})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if err := w.WriteRow(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}

		// The delta, in the order a delta replays: the later record of
		// an ordinal replaces the earlier, the later set of a column
		// wins, and a delete drops the record's sets.
		want := map[uint32]fuzzRecord{}
		ov := buildOverlay(func(b *OverlayBuilder) {
			for range r.Intn(300) {
				ord := fuzzOrdinal(r, n, stripe)
				rec := fuzzRecord{sets: map[int]datum.Datum{}}
				b.Record(ord)
				for range r.Intn(5) {
					if r.Intn(6) == 0 {
						b.Delete()
						rec = fuzzRecord{deleted: true}
						continue
					}
					col := r.Intn(len(overlayFuzzSchema))
					d := fuzzDatum(r, overlayFuzzSchema[col].Kind)
					b.Set(col, d)
					if !rec.deleted {
						rec.sets[col] = d
					}
				}
				if rec.deleted || len(rec.sets) > 0 {
					want[ord] = rec
				} else {
					delete(want, ord)
				}
			}
		})
		if got := overlayRecordsOf(t, ov); !reflect.DeepEqual(got, want) {
			t.Fatalf("the built overlay holds %v, the delta says %v", overlayRecordsOf(t, ov), want)
		}

		var proj []int
		if r.Intn(2) == 0 {
			for c := range overlayFuzzSchema {
				if r.Intn(2) == 0 {
					proj = append(proj, c)
				}
			}
		}
		model := applyOverlay(rows, 0, ov, proj)
		split := &ORCSplit{FS: fs, Path: "/f.orc", Opts: ScanOptions{Projection: proj},
			LoadOverlay: func(*sim.Meter) (*Overlay, error) { return ov, nil }}
		for _, batches := range []bool{true, false} {
			if out := drainSplit(t, split, batches); !slices.Equal(out, model) {
				t.Fatalf("batches=%v, %d rows in stripes of %d, projection %v: %d rows differ from the model's %d",
					batches, n, stripe, proj, len(out), len(model))
			}
		}
	})
}
