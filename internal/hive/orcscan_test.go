package hive

import (
	"fmt"
	"slices"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// overlayORC makes every ORC split of the engine merge mods on read, the
// way the ACID and DUALTABLE storages feed the shared reader their
// deltas: a plain ORC table has no overlay of its own, so this is how
// this package reaches the reader's scattered-update and selected
// (delete) batches next to its clean ones.
func overlayORC(e *Engine, ov *Overlay) {
	e.handlers[metastore.StorageORC] = overlayTestHandler{e.handlers[metastore.StorageORC], ov}
}

type overlayTestHandler struct {
	StorageHandler
	ov *Overlay
}

func (h overlayTestHandler) Splits(desc *metastore.TableDesc, opts ScanOptions) ([]mapred.InputSplit, func(), error) {
	splits, release, err := h.StorageHandler.Splits(desc, opts)
	for _, s := range splits {
		s.(*ORCSplit).LoadOverlay = func(*sim.Meter) (*Overlay, error) { return h.ov, nil }
	}
	return splits, release, err
}

// seedScanTable loads one ORC file of three stripes (10000, 10000 and
// 1000 rows; batches never span a stripe) and returns the rows loaded.
func seedScanTable(t *testing.T, e *Engine) []datum.Row {
	t.Helper()
	mustExec(t, e, "CREATE TABLE sc (id BIGINT, k BIGINT, v DOUBLE, tag STRING) STORED AS ORC")
	rows := make([]datum.Row, 21000)
	for i := range rows {
		rows[i] = datum.Row{datum.Int(int64(i)), datum.Int(int64(i % 10)), datum.Float(float64(i) + 0.25), datum.String_(fmt.Sprintf("t%d", i%5))}
		if i%97 == 0 {
			rows[i][2], rows[i][3] = datum.Null, datum.Null
		}
	}
	if _, err := e.BulkLoad("sc", rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// scanTestOverlay touches every outcome of the merge: updates that
// scatter into the vectors (one into a column scans may not project,
// one to NULL), a value its vector cannot hold (the column turns
// mixed), deletes, a record updated in the batch after a deleted one,
// and the first and last record of the file.
var scanTestOverlay = buildOverlay(func(b *OverlayBuilder) {
	b.Record(0)
	b.Set(2, datum.Float(-1))
	b.Record(5)
	b.Set(3, datum.String_("hot"))
	b.Set(1, datum.Null)
	b.Record(2000)
	b.Delete()
	b.Record(2001)
	b.Set(1, datum.Int(77))
	b.Record(3100)
	b.Set(1, datum.String_("seven")) // BIGINT vector, STRING value
	b.Record(10500)
	b.Set(2, datum.Float(0.5))
	b.Set(3, datum.String_("late"))
	b.Record(20999)
	b.Delete()
})

// buildOverlay returns the one-file overlay that fill's records make.
func buildOverlay(fill func(b *OverlayBuilder)) *Overlay {
	b := NewOverlayBuilder()
	b.File()
	fill(b)
	if ovs := b.Finish(); len(ovs) > 0 {
		return &ovs[0]
	}
	return nil
}

// applyOverlay is the model of the merge over the file's rows from
// ordinal from on: rows with their record IDs appended, deleted records
// dropped, and every patch value written into its record's row.
func applyOverlay(rows []datum.Row, from int, ov *Overlay, proj []int) []string {
	deleted := map[uint32]bool{}
	sets := map[uint32]map[int]datum.Datum{}
	if ov != nil {
		for _, o := range ov.Deleted {
			deleted[o] = true
		}
		for _, p := range ov.Patches {
			for k, o := range p.Ords {
				if sets[o] == nil {
					sets[o] = map[int]datum.Datum{}
				}
				sets[o][p.Col] = p.Vals.Datum(k)
			}
		}
	}
	var out []string
	for i := from; i < len(rows); i++ {
		if deleted[uint32(i)] {
			continue
		}
		r := rows[i]
		row := make(datum.Row, len(r), len(r)+1)
		for c := range r {
			if proj == nil || slices.Contains(proj, c) {
				row[c] = r[c]
			}
		}
		for c, v := range sets[uint32(i)] {
			row[c] = v
		}
		out = append(out, append(row, datum.Int(int64(i))).String())
	}
	return out
}

// parseWhere parses a WHERE condition over table sc.
func parseWhere(t *testing.T, cond string) sqlparser.Expr {
	t.Helper()
	stmt, err := sqlparser.Parse("SELECT * FROM sc WHERE " + cond)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*sqlparser.SelectStmt).Where
}

type orcScanResult struct {
	rows    []string
	counts  mapred.Counters
	simSecs float64
}

// runORCScan runs one identity map-only job (rows with their record ID
// appended) over the table's production splits.
func runORCScan(t *testing.T, e *Engine, opts ScanOptions, workers int, rowScan bool) orcScanResult {
	t.Helper()
	desc, err := e.MS.Get("sc")
	if err != nil {
		t.Fatal(err)
	}
	h, _ := e.Handler(desc.Storage)
	splits, release, err := h.Splits(desc, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	mr := mapred.NewCluster(e.MR.Params)
	mr.Parallelism, mr.DisableBatchScan = workers, rowScan
	res, err := mr.Run(&mapred.Job{
		Name:   "orc-scan-equivalence",
		Splits: splits,
		NewMapper: func() mapred.Mapper {
			return mapred.MapFunc(func(row datum.Row, meta mapred.RecordMeta, emit mapred.Emitter) error {
				return emit(nil, append(row.Clone(), datum.Int(int64(meta.RecordID))))
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := orcScanResult{counts: res.Counters, simSecs: res.SimSeconds}
	for _, r := range res.Rows {
		out.rows = append(out.rows, r.String())
	}
	return out
}

// TestORCScanBatchRowEquivalence: the one ORC reader returns the rows
// the overlay model predicts, and byte-identical rows (with record IDs),
// Counters and SimSeconds in batch and row mode across 1 and 4 workers —
// without an overlay (the plain ORC table) and with one, full, projected
// and with a SearchArg that prunes the first two stripes of a clean file.
func TestORCScanBatchRowEquivalence(t *testing.T) {
	e := testEngine(t)
	loaded := seedScanTable(t, e)
	desc, _ := e.MS.Get("sc")
	sarg := ExtractSearchArg(parseWhere(t, "id >= 20500"), "sc", desc.Schema)
	if sarg == nil {
		t.Fatal("no SearchArg extracted")
	}
	for _, overlay := range []*Overlay{nil, scanTestOverlay} {
		if overlay != nil {
			overlayORC(e, overlay)
		}
		for _, sc := range []struct {
			name string
			opts ScanOptions
		}{
			{"full", ScanOptions{}},
			{"projected", ScanOptions{Projection: []int{0, 2}}},
			{"pushdown", ScanOptions{SArg: sarg}},
		} {
			// Statistics prune the first two stripes of a clean file
			// (ordinals keep counting through them); they cannot see an
			// overlay, so a dirty file is read whole.
			from := 0
			if sc.opts.SArg != nil && overlay == nil {
				from = 20000
			}
			want := applyOverlay(loaded, from, overlay, sc.opts.Projection)
			ref := runORCScan(t, e, sc.opts, 1, true)
			if !slices.Equal(ref.rows, want) {
				t.Fatalf("overlay=%v %s: %d rows differ from the model's %d", overlay != nil, sc.name, len(ref.rows), len(want))
			}
			for _, workers := range []int{1, 4} {
				for _, rowScan := range []bool{true, false} {
					got := runORCScan(t, e, sc.opts, workers, rowScan)
					label := fmt.Sprintf("overlay=%v %s workers=%d rowScan=%v", overlay != nil, sc.name, workers, rowScan)
					if !slices.Equal(got.rows, ref.rows) {
						t.Fatalf("%s: rows differ from the row-mode reference", label)
					}
					if got.counts != ref.counts || got.simSecs != ref.simSecs {
						t.Fatalf("%s: counters %+v sim %v, want %+v sim %v", label, got.counts, got.simSecs, ref.counts, ref.simSecs)
					}
				}
			}
		}
	}
}

// TestORCScanTakesBatchPath pins what the equivalence suites rely on: a
// plain ORC split really serves column vectors that typed WHERE
// programs run over, and an overlay produces exactly the two batch
// outcomes — updates scattered into the vectors (a misfit value turning
// its column mixed, where a program runs its whole row closure
// instead), deletes left out of the selection — so the matrix cannot
// compare the row path with itself.
func TestORCScanTakesBatchPath(t *testing.T) {
	e := testEngine(t)
	seedScanTable(t, e)
	desc, _ := e.MS.Get("sc")
	sc := &scope{}
	for _, c := range desc.Schema {
		sc.cols = append(sc.cols, scopeCol{qual: "sc", name: c.Name, kind: c.Kind})
	}
	where := parseWhere(t, "k < 3 AND v > 100")
	shapes := func() (batches, selected, bailed int, dropped []uint64) {
		h, _ := e.Handler(desc.Storage)
		splits, release, err := h.Splits(desc, ScanOptions{})
		if err != nil || len(splits) != 1 {
			t.Fatalf("splits = %v, %v", splits, err)
		}
		defer release()
		rr, err := splits[0].Open(sim.NewMeter(&e.MR.Params))
		if err != nil {
			t.Fatal(err)
		}
		defer rr.Close()
		br, ok := rr.(mapred.BatchRecordReader)
		if !ok {
			t.Fatalf("%T does not serve batches", rr)
		}
		filter, err := e.newScanFilter(nil, where, sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(filter.where) != 2 || !filter.where[0].typed() || !filter.where[1].typed() {
			t.Fatalf("WHERE %s: want two typed conjuncts", where)
		}
		var b mapred.RecordBatch
		for br.NextBatch(&b) == nil {
			batches++
			if _, err := filter.begin(&b); err != nil {
				t.Fatal(err)
			}
			if !filter.where[0].fits(&b) || !filter.where[1].fits(&b) {
				bailed++
			}
			if b.Sel == nil {
				continue
			}
			selected++
			for i := 0; i < b.Len; i++ {
				if !slices.Contains(b.Sel, int32(i)) {
					dropped = append(dropped, b.Meta(i).RecordID)
				}
			}
		}
		return batches, selected, bailed, dropped
	}
	if batches, selected, bailed, _ := shapes(); batches != 21 || selected != 0 || bailed != 0 {
		t.Fatalf("clean file: %d batches, %d with a selection, %d where the WHERE program bailed; want 21, 0, 0", batches, selected, bailed)
	}
	overlayORC(e, scanTestOverlay)
	// Selected: the batches of records 2000 and 20999 (deletes). Bailed:
	// the batch of 3100, whose BIGINT column k took a STRING.
	batches, selected, bailed, dropped := shapes()
	if batches != 21 || selected != 2 || bailed != 1 {
		t.Fatalf("dirty file: %d batches, %d with a selection, %d where the WHERE program bailed; want 21, 2, 1", batches, selected, bailed)
	}
	if !slices.Equal(dropped, []uint64{2000, 20999}) {
		t.Fatalf("selections drop records %v, want 2000 and 20999", dropped)
	}
}
