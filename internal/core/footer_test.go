package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/hive"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// fourFileTable creates DUALTABLE m with four master files of 90 rows
// and a non-empty attached table (one EDIT UPDATE, one EDIT DELETE).
func fourFileTable(t *testing.T, e *hive.Engine, h *Handler) *metastore.TableDesc {
	t.Helper()
	mustExec(t, e, "CREATE TABLE m (id BIGINT, day BIGINT, v DOUBLE, tag STRING) STORED AS DUALTABLE")
	for f := 0; f < 4; f++ {
		var sb strings.Builder
		sb.WriteString("INSERT INTO m VALUES ")
		for i := f * 90; i < (f+1)*90; i++ {
			if i > f*90 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d.5, 'tag%d')", i, i%36, i, i%4)
		}
		mustExec(t, e, sb.String())
	}
	forcePlan(e, h, "EDIT")
	mustExec(t, e, "UPDATE m SET v = 777.5 WHERE day = 3")
	mustExec(t, e, "DELETE FROM m WHERE day = 5")
	desc, err := e.MS.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	return desc
}

func manifestPaths(t *testing.T, e *hive.Engine) []string {
	t.Helper()
	man, err := e.MS.CurrentManifest("m")
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(man.Files))
	for i, f := range man.Files {
		paths[i] = f.Path
	}
	sort.Strings(paths)
	return paths
}

// memoPaths lists the files whose footers the table's resident epoch
// holds.
func memoPaths(h *Handler) []string {
	st := h.state("m")
	st.pub.Lock()
	defer st.pub.Unlock()
	paths := []string{}
	if st.res != nil {
		for _, f := range st.res.files {
			paths = append(paths, f.path)
		}
	}
	sort.Strings(paths)
	return paths
}

// TestFooterMemoLifecycle follows the per-table footer memo through
// the events that change a manifest: it holds the current manifest's
// paths and nothing else, a scan of memoised files reads no footer, a
// replace empties it, a historical read neither uses nor changes it,
// and it dies with the incarnation.
func TestFooterMemoLifecycle(t *testing.T) {
	e, h := testEngine(t)
	fourFileTable(t, e, h)
	const q = "SELECT id, day, v, tag FROM m ORDER BY id"
	read := func() []string {
		t.Helper()
		rs := mustExec(t, e, q)
		out := make([]string, len(rs.Rows))
		for i, r := range rs.Rows {
			out[i] = r.String()
		}
		return out
	}
	wantMemo := func(when string) {
		t.Helper()
		if got, want := memoPaths(h), manifestPaths(t, e); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: memo holds %v, the current manifest is %v", when, got, want)
		}
	}

	base := read()
	wantMemo("after a scan")
	if n := len(memoPaths(h)); n != 4 {
		t.Fatalf("memo holds %d footers, want the table's 4 files", n)
	}
	// Warm: a scan opens each file once (the task's handle) and reads
	// stripes only — the footers come from the memo through the splits.
	before := e.FS.Metrics()
	read()
	after := e.FS.Metrics()
	if got := after.OpensForRead - before.OpensForRead; got != 4 {
		t.Errorf("warm scan opened %d files for read, want 4 (one per split, none for footers)", got)
	}

	desc, _ := e.MS.Get("m")
	epBefore, err := h.CurrentEpoch(desc)
	if err != nil {
		t.Fatal(err)
	}
	retained := manifestPaths(t, e)

	mustExec(t, e, "UPDATE m SET v = 1.5 WHERE day = 7") // EDIT: same files
	wantMemo("after an EDIT update")

	mustExec(t, e, "COMPACT TABLE m")
	if got := memoPaths(h); len(got) != 0 {
		t.Fatalf("after COMPACT the memo still holds superseded files: %v", got)
	}
	afterCompact := read()
	wantMemo("after COMPACT and a scan")

	forcePlan(e, h, "OVERWRITE")
	mustExec(t, e, "UPDATE m SET v = 2.5 WHERE day = 9")
	read()
	wantMemo("after an OVERWRITE update and a scan")
	current := memoPaths(h)

	// A retained epoch's files are not in the memo; the read parses
	// them itself and leaves the memo alone.
	for _, p := range retained {
		for _, c := range current {
			if p == c {
				t.Fatalf("retained file %s is in the current manifest; the test needs a superseded one", p)
			}
		}
	}
	rs := mustExec(t, e, fmt.Sprintf("SELECT id, day, v, tag FROM m AS OF EPOCH %d ORDER BY id", epBefore))
	if len(rs.Rows) != len(base) {
		t.Fatalf("AS OF EPOCH %d: %d rows, want %d", epBefore, len(rs.Rows), len(base))
	}
	for i, r := range rs.Rows {
		if r.String() != base[i] {
			t.Fatalf("AS OF EPOCH %d row %d = %s, want %s", epBefore, i, r.String(), base[i])
		}
	}
	if got := memoPaths(h); !reflect.DeepEqual(got, current) {
		t.Fatalf("a historical read changed the memo: %v, was %v", got, current)
	}
	if len(afterCompact) == 0 {
		t.Fatal("empty table after COMPACT")
	}

	mustExec(t, e, "DROP TABLE m")
	mustExec(t, e, "CREATE TABLE m (id BIGINT, day BIGINT, v DOUBLE, tag STRING) STORED AS DUALTABLE")
	if got := memoPaths(h); len(got) != 0 {
		t.Fatalf("a re-created table inherited footers: %v", got)
	}
	mustExec(t, e, "INSERT INTO m VALUES (1, 1, 1.5, 'x')")
	if rows := read(); len(rows) != 1 {
		t.Fatalf("re-created table reads %d rows, want 1", len(rows))
	}
	wantMemo("after DROP + CREATE, an INSERT and a scan")
}

// ownFooter is the storage handler with the footer hand-off taken out:
// its splits open and parse their file's footer themselves, as every
// split did before the snapshot handed its own over.
type ownFooter struct{ *Handler }

func (o ownFooter) Splits(desc *metastore.TableDesc, opts ScanOptions) ([]mapred.InputSplit, func(), error) {
	splits, release, err := o.Handler.Splits(desc, opts)
	return withoutFooters(splits), release, err
}

func withoutFooters(splits []mapred.InputSplit) []mapred.InputSplit {
	out := make([]mapred.InputSplit, len(splits))
	for i, sp := range splits {
		c := *sp.(*hive.ORCSplit)
		c.Footer = nil
		out[i] = &c
	}
	return out
}

// TestFooterHandOffLeavesClockUntouched: the simulated clock is the
// paper's cost model, and a split that is handed its footer must charge
// its task exactly what opening the file charged. Two identical
// 4-file tables with attached entries: on one a SELECT, an EDIT UPDATE
// and a COMPACT run as statements; on the other the same three run over
// splits that open their own footer (the UPDATE and COMPACT jobs are
// built here as runEdit and Compact build them, because those take
// their splits from the snapshot directly). Everything compares with
// ==, floats included.
func TestFooterHandOffLeavesClockUntouched(t *testing.T) {
	eA, hA := testEngine(t)
	eB, hB := testEngine(t)
	descA := fourFileTable(t, eA, hA)
	descB := fourFileTable(t, eB, hB)

	// Split by split: open, drain, close on a fresh task meter.
	type charge struct {
		seconds uint64 // float bits
		counts  sim.Counts
		rows    int
	}
	drain := func(sp mapred.InputSplit, e *hive.Engine) charge {
		t.Helper()
		m := sim.NewMeter(&e.MR.Params)
		rr, err := sp.Open(m)
		if err != nil {
			t.Fatal(err)
		}
		var b mapred.RecordBatch
		n := 0
		for {
			if err := rr.(mapred.BatchRecordReader).NextBatch(&b); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			n += b.Len
		}
		if err := rr.Close(); err != nil {
			t.Fatal(err)
		}
		return charge{math.Float64bits(m.Seconds()), m.Counts(), n}
	}
	splits, release, err := hA.Splits(descA, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 4 {
		t.Fatalf("%d splits, want 4", len(splits))
	}
	for i, own := range withoutFooters(splits) {
		if splits[i].(*hive.ORCSplit).Footer == nil {
			t.Fatalf("split %d carries no footer: nothing is being compared", i)
		}
		if handed, opened := drain(splits[i], eA), drain(own, eA); handed != opened {
			t.Errorf("split %d: handed a footer the task meter reads %+v, opening its own %+v", i, handed, opened)
		}
	}
	// The same scan as one job: Counters and SimSeconds.
	scan := func(splits []mapred.InputSplit) *mapred.Result {
		t.Helper()
		res, err := eA.MR.Run(&mapred.Job{Name: "scan", Splits: splits, NewMapper: func() mapred.Mapper {
			return mapred.MapFunc(func(row datum.Row, _ mapred.RecordMeta, emit mapred.Emitter) error {
				return emit(nil, row)
			})
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	handed, opened := scan(splits), scan(withoutFooters(splits))
	if handed.Counters != opened.Counters || handed.SimSeconds != opened.SimSeconds {
		t.Errorf("scan job: handed %+v %v, own footer %+v %v",
			handed.Counters, handed.SimSeconds, opened.Counters, opened.SimSeconds)
	}
	release()

	// SELECT: the statement, whose splits come through Handler.Splits.
	const sel = "SELECT day, COUNT(*), SUM(v) FROM m WHERE v > 10 GROUP BY day ORDER BY day"
	selA := mustExec(t, eA, sel)
	eB.RegisterHandler(metastore.StorageDual, ownFooter{hB})
	selB := mustExec(t, eB, sel)
	if selA.SimSeconds != selB.SimSeconds || selA.Plan != selB.Plan || !reflect.DeepEqual(selA.Rows, selB.Rows) {
		t.Errorf("SELECT: handed %v %q, own footer %v %q (rows equal: %v)",
			selA.SimSeconds, selA.Plan, selB.SimSeconds, selB.Plan, reflect.DeepEqual(selA.Rows, selB.Rows))
	}

	// EDIT UPDATE: runEdit's job over splits without footers.
	const upd = "UPDATE m SET v = v + 1 WHERE day = 7 OR id < 40"
	updA := mustExec(t, eA, upd)
	if updA.Plan != "EDIT" {
		t.Fatalf("UPDATE ran as %s, want EDIT", updA.Plan)
	}
	stmt, err := sqlparser.Parse(upd)
	if err != nil {
		t.Fatal(err)
	}
	att, err := hB.attached(descB)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := hB.OpenSnapshot(descB)
	if err != nil {
		t.Fatal(err)
	}
	mB := sim.NewLedger(&eB.MR.Params)
	affected, err := eB.RunDMLScan(nil, descB, stmt, "dualtable-update-udtf", withoutFooters(snap.Splits(ScanOptions{})), mB,
		func(setCols []int) hive.DMLSink { return &editSink{att: att, setCols: setCols} })
	snap.Release()
	if err != nil {
		t.Fatal(err)
	}
	if err := hB.publish(descB, nil, false); err != nil {
		t.Fatal(err)
	}
	if updA.Affected != affected || updA.SimSeconds != mB.Seconds() {
		t.Errorf("EDIT UPDATE: handed %d rows %v, own footer %d rows %v", updA.Affected, updA.SimSeconds, affected, mB.Seconds())
	}

	// COMPACT: Compact's job over splits without footers.
	cmpA := mustExec(t, eA, "COMPACT TABLE m")
	snap, err = hB.OpenSnapshot(descB)
	if err != nil {
		t.Fatal(err)
	}
	factory := &masterOutputFactory{h: hB, desc: descB, dir: masterDir(descB)}
	res, err := eB.MR.RunContext(context.Background(), &mapred.Job{
		Name:   "dualtable-compact",
		Splits: withoutFooters(snap.Splits(ScanOptions{})),
		NewMapper: func() mapred.Mapper {
			return mapred.MapFunc(func(row datum.Row, _ mapred.RecordMeta, emit mapred.Emitter) error {
				return emit(nil, row)
			})
		},
		Output: factory,
	})
	snap.Release()
	if err != nil {
		t.Fatal(err)
	}
	if err := hB.publish(descB, factory.files(), true); err != nil {
		t.Fatal(err)
	}
	if cmpA.SimSeconds != res.SimSeconds {
		t.Errorf("COMPACT: handed %v, own footer %v", cmpA.SimSeconds, res.SimSeconds)
	}

	// Both tables went through the same history.
	const all = "SELECT id, day, v, tag FROM m ORDER BY id"
	if a, b := mustExec(t, eA, all), mustExec(t, eB, all); !reflect.DeepEqual(a.Rows, b.Rows) || a.SimSeconds != b.SimSeconds {
		t.Errorf("after the three statements the tables differ: %d rows %v vs %d rows %v",
			len(a.Rows), a.SimSeconds, len(b.Rows), b.SimSeconds)
	}
}
