package orcfile

import (
	"bytes"
	"math/rand"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/dfs"
)

// batchesOf cuts rows into column batches of random lengths. Each
// column is stored one of the ways a result batch can hold it, chosen
// per batch: typed, or — for a column with a NULL in the batch, where
// Put would leave it — all NULL (KindNull), or mixed (Datums). Some
// batches are gathered out of a larger batch through a selection with
// gaps, as COMPACT's mapper gathers a UNION READ batch's live records.
func batchesOf(rng *rand.Rand, rows []datum.Row) []*datum.Batch {
	var out []*datum.Batch
	for len(rows) > 0 {
		n := min(len(rows), 1+rng.Intn(700))
		var b datum.Batch
		if rng.Intn(3) == 0 {
			// Interleave n live rows with dead ones and gather the live.
			var wide []datum.Row
			var sel []int32
			for _, r := range rows[:n] {
				if rng.Intn(2) == 0 {
					wide = append(wide, r) // a dead row: any values
				}
				sel = append(sel, int32(len(wide)))
				wide = append(wide, r)
			}
			var src datum.Batch
			src.SetRows(wide, len(rows[0]))
			b.Shape(len(rows[0]), n)
			for j := range src.Cols {
				b.Cols[j].Gather(&src.Cols[j], sel)
			}
		} else {
			b.SetRows(rows[:n], len(rows[0]))
		}
		for j := range b.Cols {
			v := &b.Cols[j]
			if rng.Intn(4) != 0 {
				continue
			}
			// Turn the column mixed: every non-NULL row a whole datum.
			ds := make([]datum.Datum, n)
			for i := range ds {
				ds[i] = v.Datum(i)
			}
			v.Kind, v.Datums = datum.KindNull, ds
			v.Ints, v.Floats, v.Bools, v.Strs = nil, nil, nil, nil
		}
		out = append(out, &b)
		rows = rows[n:]
	}
	return out
}

// TestWriteBatchMatchesWriteRow: WriteBatch writes exactly the bytes a
// WriteRow per row writes — every kind, NULLs, dictionary and direct
// strings, all-NULL and mixed vectors, batches gathered through a
// selection with gaps, and stripes that end inside a batch — with and
// without compression.
func TestWriteBatchMatchesWriteRow(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema, rows := genRows(t, 1+rng.Intn(3000), seed)
		opts := WriterOptions{StripeRows: 1 + rng.Intn(1500), Compression: seed%2 == 0,
			UserMeta: map[string]string{"k": "v"}}
		want, err := encodeFile(schema, rows, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batchesOf(rng, rows) {
			if err := w.WriteBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("seed %d (%d rows, stripes of %d): WriteBatch wrote %d bytes unlike WriteRow's %d",
				seed, len(rows), opts.StripeRows, buf.Len(), len(want))
		}
	}
}

// TestWriteBatchRejectsKind: a value of another kind than its column's
// fails the batch as it fails the row.
func TestWriteBatchRejectsKind(t *testing.T) {
	schema := datum.Schema{{Name: "a", Kind: datum.KindInt}}
	w, err := NewWriter(&bytes.Buffer{}, schema, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var b datum.Batch
	b.SetRows([]datum.Row{{datum.Int(1)}, {datum.String_("x")}}, 1)
	if err := w.WriteBatch(&b); err == nil {
		t.Fatal("a STRING in a BIGINT column was written")
	}
}

// TestWriterSeedsStreamCache: a file's streams are cached as it is
// written, so the first scan of a fresh file adds no entry — and a
// block corrupted after the write still fails the scan, because the
// corrupt bytes are not the bytes the writer cached.
func TestWriterSeedsStreamCache(t *testing.T) {
	useCache(t, newStreamCache(streamCacheBytes))
	fs := dfs.New(dfs.Config{BlockSize: 1 << 20})
	fw, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(fw, testSchema(), WriterOptions{Compression: true, StripeRows: 300})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range makeRows(2000, 4) {
		if err := w.WriteRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	written := cache.entries()
	if written == 0 {
		t.Fatal("the writer cached no stream")
	}
	if n, err := drainDFS(t, fs, "/f", nil); err != nil || n != 2000 {
		t.Fatalf("scan read %d rows, %v", n, err)
	}
	if got := cache.entries(); got != written {
		t.Fatalf("the scan after the write cached %d more streams", got-written)
	}
	if err := fs.CorruptBlock("/f", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := drainDFS(t, fs, "/f", nil); err == nil {
		t.Fatal("corrupted DFS block read without error")
	}
}
