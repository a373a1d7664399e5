package dualtable_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dualtable"
	"dualtable/internal/datum"
	"dualtable/internal/orcfile"
)

// TestSessionConcurrentForcePlan runs two sessions with conflicting
// SET dualtable.force.plan values concurrently (under -race) and
// checks each session's PlanLog records exactly its own choice.
func TestSessionConcurrentForcePlan(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE ta (id BIGINT, v DOUBLE) STORED AS DUALTABLE")
	db.MustExec("CREATE TABLE tb (id BIGINT, v DOUBLE) STORED AS DUALTABLE")
	db.MustExec("INSERT INTO ta VALUES (1, 1.0), (2, 2.0), (3, 3.0)")
	db.MustExec("INSERT INTO tb VALUES (1, 1.0), (2, 2.0), (3, 3.0)")

	sessEdit := db.Session()
	sessOver := db.Session()
	if _, err := sessEdit.Exec("SET dualtable.force.plan = EDIT"); err != nil {
		t.Fatal(err)
	}
	if _, err := sessOver.Exec("SET dualtable.force.plan = OVERWRITE"); err != nil {
		t.Fatal(err)
	}

	const rounds = 6
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			rs, err := sessEdit.Exec(fmt.Sprintf("UPDATE ta SET v = %d.0 WHERE id = 2", i))
			if err != nil {
				errs[0] = err
				return
			}
			if rs.Plan != "EDIT" {
				errs[0] = fmt.Errorf("session A round %d got plan %q, want EDIT", i, rs.Plan)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			rs, err := sessOver.Exec(fmt.Sprintf("UPDATE tb SET v = %d.0 WHERE id = 2", i))
			if err != nil {
				errs[1] = err
				return
			}
			if rs.Plan != "OVERWRITE" {
				errs[1] = fmt.Errorf("session B round %d got plan %q, want OVERWRITE", i, rs.Plan)
				return
			}
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	logA, logB := sessEdit.PlanLog(), sessOver.PlanLog()
	if len(logA) != rounds || len(logB) != rounds {
		t.Fatalf("plan log lengths = %d, %d; want %d each", len(logA), len(logB), rounds)
	}
	for _, d := range logA {
		if d.Plan.String() != "EDIT" || d.Table != "ta" {
			t.Errorf("session A logged %v on %s", d.Plan, d.Table)
		}
	}
	for _, d := range logB {
		if d.Plan.String() != "OVERWRITE" || d.Table != "tb" {
			t.Errorf("session B logged %v on %s", d.Plan, d.Table)
		}
	}
	// The handler-global log saw both.
	if got := len(db.PlanLog()); got != 2*rounds {
		t.Errorf("global plan log = %d entries, want %d", got, 2*rounds)
	}
}

// TestSessionConcurrentEditsSameTable exercises two sessions writing
// the same DualTable concurrently with the EDIT plan (race detector
// coverage for the attached-table path).
func TestSessionConcurrentEditsSameTable(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE shared (id BIGINT, v DOUBLE) STORED AS DUALTABLE")
	db.MustExec("INSERT INTO shared VALUES (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)")

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		g := g
		sess := db.Session()
		sess.SetForcePlan("EDIT")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := sess.Exec(fmt.Sprintf("UPDATE shared SET v = %d.%d WHERE id = %d", i, g, g+1)); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSessionSetListAndUnset(t *testing.T) {
	db := openDB(t)
	sess := db.Session()
	sess.MustExec("SET dualtable.following.reads = 3")
	sess.MustExec("SET my.custom.key = 'hello world'")
	rs := sess.MustExec("SET")
	if len(rs.Rows) != 2 {
		t.Fatalf("SET listing = %v", rs.Rows)
	}
	got := map[string]string{}
	for _, r := range rs.Rows {
		got[r[0].S] = r[1].S
	}
	if got["dualtable.following.reads"] != "3" || got["my.custom.key"] != "hello world" {
		t.Errorf("settings = %v", got)
	}
	sess.Unset("my.custom.key")
	if rs := sess.MustExec("SET"); len(rs.Rows) != 1 {
		t.Errorf("after Unset: %v", rs.Rows)
	}
	// SET without a session (raw engine) fails.
	if _, err := db.Engine.Execute("SET a.b = 1"); err == nil {
		t.Error("engine-level SET should require a session")
	}
}

// TestContextCanceledBeforeExec checks that an already-canceled
// context aborts statements before any MapReduce work happens.
func TestContextCanceledBeforeExec(t *testing.T) {
	db := openDB(t)
	sess := db.Session()
	sess.MustExec("CREATE TABLE t (id BIGINT, v DOUBLE) STORED AS DUALTABLE")
	sess.MustExec("INSERT INTO t VALUES (1, 1.0), (2, 2.0)")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.ExecContext(ctx, "SELECT * FROM t"); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled SELECT err = %v, want context.Canceled", err)
	}
	if _, err := sess.ExecContext(ctx, "UPDATE t SET v = 0.0"); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled UPDATE err = %v, want context.Canceled", err)
	}
	if _, err := sess.QueryContext(ctx, "SELECT * FROM t"); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Query err = %v, want context.Canceled", err)
	}
	// The table is intact.
	rs := sess.MustExec("SELECT v FROM t WHERE id = 1")
	if rs.Rows[0][0].F != 1.0 {
		t.Errorf("update ran despite canceled context: %v", rs.Rows)
	}
}

// TestQueryContextCancelMidScan cancels a streaming query after the
// first row and checks the MapReduce job aborts with context.Canceled
// instead of completing.
func TestQueryContextCancelMidScan(t *testing.T) {
	db := openDB(t)
	sess := db.Session()
	sess.MustExec("CREATE TABLE big (id BIGINT, v DOUBLE) STORED AS DUALTABLE")
	// More batches than a stream can have in flight, so the job is still
	// running when the first row is out.
	rows := make([]datum.Row, 16*orcfile.DefaultBatchRows)
	for i := range rows {
		rows[i] = datum.Row{datum.Int(int64(i)), datum.Float(float64(i))}
	}
	if _, err := db.Engine.BulkLoad("big", rows); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	rs, err := sess.QueryContext(ctx, "SELECT id, v FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Next() {
		t.Fatalf("no first row: %v", rs.Err())
	}
	cancel()
	// Drain; the producer must terminate with the cancellation error.
	n := 1
	for rs.Next() {
		n++
	}
	if !errors.Is(rs.Err(), context.Canceled) {
		t.Errorf("after cancel, Err = %v (read %d rows), want context.Canceled", rs.Err(), n)
	}
	if n >= len(rows) {
		t.Errorf("scan completed (%d rows) despite cancellation", n)
	}
	rs.Close()
}

func TestPreparedStatementRebinding(t *testing.T) {
	db := openDB(t)
	sess := db.Session()
	sess.MustExec("CREATE TABLE p (id BIGINT, name STRING) STORED AS DUALTABLE")

	ins, err := sess.Prepare("INSERT INTO p VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 2 {
		t.Fatalf("NumParams = %d", ins.NumParams())
	}
	for i, name := range []string{"alpha", "beta", "gamma"} {
		if _, err := ins.Exec(int64(i+1), name); err != nil {
			t.Fatal(err)
		}
	}
	// Wrong arity fails cleanly.
	if _, err := ins.Exec(int64(9)); err == nil {
		t.Error("arity mismatch should fail")
	}

	sel, err := sess.Prepare("SELECT name FROM p WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"alpha", "beta", "gamma"} {
		rows, err := sel.Query(int64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		var got string
		if !rows.Next() {
			t.Fatalf("id %d: no row (%v)", i+1, rows.Err())
		}
		if err := rows.Scan(&got); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		if got != want {
			t.Errorf("id %d = %q, want %q", i+1, got, want)
		}
	}

	// Prepared UPDATE rebinding through the DualTable DML path.
	upd, err := sess.Prepare("UPDATE p SET name = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := upd.Exec("delta", int64(2)); err != nil {
		t.Fatal(err)
	}
	rs := sess.MustExec("SELECT name FROM p WHERE id = 2")
	if rs.Rows[0][0].S != "delta" {
		t.Errorf("rebound update result = %v", rs.Rows)
	}

	// The plan cache returns the same compiled statement without
	// reparsing.
	p1, _ := db.Engine.Prepare("SELECT name FROM p WHERE id = ?")
	p2, _ := db.Engine.Prepare("SELECT name FROM p WHERE id = ?")
	if p1 != p2 {
		t.Error("plan cache did not deduplicate identical SQL")
	}
	if _, hits, _ := db.Engine.PlanCacheStats(); hits == 0 {
		t.Error("plan cache recorded no hits")
	}
}

func TestRowsDrainVsEarlyClose(t *testing.T) {
	db := openDB(t)
	sess := db.Session()
	sess.MustExec("CREATE TABLE r (id BIGINT) STORED AS DUALTABLE")
	rows := make([]datum.Row, 1000)
	for i := range rows {
		rows[i] = datum.Row{datum.Int(int64(i))}
	}
	if _, err := db.Engine.BulkLoad("r", rows); err != nil {
		t.Fatal(err)
	}

	// Full drain sees every row exactly once.
	rs, err := sess.Query("SELECT id FROM r")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for rs.Next() {
		var id int64
		if err := rs.Scan(&id); err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
	if rs.Err() != nil {
		t.Fatal(rs.Err())
	}
	if len(seen) != len(rows) {
		t.Fatalf("drained %d rows, want %d", len(seen), len(rows))
	}
	if rs.SimSeconds() <= 0 {
		t.Error("no simulated time recorded after drain")
	}
	rs.Close()

	// Early close after a few rows is clean (no error) and aborts the
	// job.
	rs, err = sess.Query("SELECT id FROM r")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && rs.Next(); i++ {
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if rs.Err() != nil {
		t.Errorf("early Close set Err = %v", rs.Err())
	}
	if rs.Next() {
		t.Error("Next after Close should be false")
	}

	// LIMIT streams and stops early without error.
	rs, err = sess.Query("SELECT id FROM r LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rs.Next() {
		n++
	}
	if rs.Err() != nil {
		t.Fatal(rs.Err())
	}
	if n != 5 {
		t.Errorf("LIMIT 5 returned %d rows", n)
	}
	rs.Close()

	// LIMIT 0 returns immediately without scanning.
	rs, err = sess.Query("SELECT id FROM r LIMIT 0")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Next() {
		t.Error("LIMIT 0 returned a row")
	}
	if rs.Err() != nil {
		t.Fatal(rs.Err())
	}
	rs.Close()

	// Non-streamable queries (aggregate + ORDER BY) still work through
	// the same iterator.
	rs, err = sess.Query("SELECT COUNT(*) FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Next() {
		t.Fatalf("no aggregate row: %v", rs.Err())
	}
	var cnt int64
	if err := rs.Scan(&cnt); err != nil {
		t.Fatal(err)
	}
	if cnt != int64(len(rows)) {
		t.Errorf("COUNT(*) = %d", cnt)
	}
	rs.Close()
}

// TestStreamLimitAcrossSplits checks LIMIT is exact when several map
// tasks race to deliver rows (one master file per INSERT → one split
// each): every reserved slot's row must arrive, whichever task's send
// completes last.
func TestStreamLimitAcrossSplits(t *testing.T) {
	db := openDB(t)
	sess := db.Session()
	sess.MustExec("CREATE TABLE ms (id BIGINT) STORED AS DUALTABLE")
	for i := 0; i < 8; i++ {
		sess.MustExec(fmt.Sprintf("INSERT INTO ms VALUES (%d), (%d)", 2*i, 2*i+1))
	}
	for round := 0; round < 200; round++ {
		rs, err := sess.Query("SELECT id FROM ms LIMIT 3")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rs.Next() {
			n++
		}
		if rs.Err() != nil {
			t.Fatal(rs.Err())
		}
		rs.Close()
		if n != 3 {
			t.Fatalf("round %d: LIMIT 3 delivered %d rows", round, n)
		}
	}
}

func TestSessionFollowingReadsAndRatioHint(t *testing.T) {
	db := openDB(t)
	sess := db.Session()
	sess.MustExec("CREATE TABLE h (id BIGINT, v DOUBLE) STORED AS DUALTABLE")
	sess.MustExec("INSERT INTO h VALUES (1, 1.0), (2, 2.0)")
	sess.SetFollowingReads(4)
	if err := sess.SetRatioHint("UPDATE h SET v = 0.0 WHERE id = 1", 0.7); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetRatioHint("SELECT 1", 0.5); err == nil {
		t.Error("ratio hint on SELECT should fail")
	}
	if _, err := sess.Exec("UPDATE h SET v = 9.0 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	log := sess.PlanLog()
	if len(log) != 1 {
		t.Fatalf("plan log = %v", log)
	}
	if log[0].RatioSrc != "session-hint" || log[0].Ratio != 0.7 {
		t.Errorf("decision = %+v, want session-hint ratio 0.7", log[0])
	}
	// Another session is unaffected by the hint.
	other := db.Session()
	if _, err := other.Exec("UPDATE h SET v = 8.0 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if l := other.PlanLog(); len(l) != 1 || l[0].RatioSrc == "session-hint" {
		t.Errorf("other session decision = %+v", l)
	}
}

// TestPlanCacheNormalizedHits checks that statements differing only in
// literal constants return each constant's rows, and that repeating an
// exact text is a plan-cache hit.
func TestPlanCacheNormalizedHits(t *testing.T) {
	db := openDB(t)
	sess := db.Session()
	sess.MustExec("CREATE TABLE nrm (id BIGINT, v DOUBLE) STORED AS DUALTABLE")
	sess.MustExec("INSERT INTO nrm VALUES (1, 1.5), (2, 2.5), (3, 3.5)")

	for id := 1; id <= 3; id++ {
		rs := sess.MustExec(fmt.Sprintf("SELECT v FROM nrm WHERE id = %d", id))
		if len(rs.Rows) != 1 || rs.Rows[0][0].F != float64(id)+0.5 {
			t.Fatalf("id %d: rows = %v", id, rs.Rows)
		}
	}

	stats := sess.PlanCacheStats()
	before := stats.Hits.Load()
	sess.MustExec("SELECT v FROM nrm WHERE id = 2")
	if stats.Hits.Load() != before+1 {
		t.Error("exact repeat should count as a hit")
	}
	if stats.HitRate() == 0 {
		t.Error("session hit rate is zero")
	}
}

// TestPreparedLimitParameter covers the parameterized LIMIT path end
// to end: LIMIT ? binds per execution, and a literal LIMIT caps rows.
func TestPreparedLimitParameter(t *testing.T) {
	db := openDB(t)
	sess := db.Session()
	sess.MustExec("CREATE TABLE lim (id BIGINT, v DOUBLE) STORED AS DUALTABLE")
	var sb strings.Builder
	sb.WriteString("INSERT INTO lim VALUES ")
	for i := 0; i < 50; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d.5)", i, i)
	}
	sess.MustExec(sb.String())

	sel, err := sess.Prepare("SELECT id FROM lim ORDER BY id LIMIT ?")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{1, 7, 50, 0} {
		rows, err := sel.Query(int64(want))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		rows.Close()
		if n != want {
			t.Fatalf("LIMIT %d returned %d rows", want, n)
		}
	}
	if _, err := sel.Query(int64(-2)); err == nil {
		t.Error("negative LIMIT binding should fail")
	}

	for _, want := range []int{4, 9} {
		rs := sess.MustExec(fmt.Sprintf("SELECT id FROM lim WHERE id >= 3 LIMIT %d", want))
		if len(rs.Rows) != want {
			t.Fatalf("LIMIT %d returned %d rows", want, len(rs.Rows))
		}
	}
}

// TestSessionCloseReleasesResources is the lifecycle regression test:
// Close is idempotent, live streaming Rows are closed (dropping their
// snapshot pins so reclamation can proceed), live Submit jobs are
// awaited, and every subsequent operation fails with ErrSessionClosed.
func TestSessionCloseReleasesResources(t *testing.T) {
	db := openDB(t)
	s := db.Session()
	s.MustExec("CREATE TABLE sc (id BIGINT, v DOUBLE) STORED AS DUALTABLE")
	loaded := make([]datum.Row, 16*orcfile.DefaultBatchRows)
	for i := range loaded {
		loaded[i] = datum.Row{datum.Int(int64(i)), datum.Float(float64(i) + 0.5)}
	}
	if _, err := db.Engine.BulkLoad("sc", loaded); err != nil {
		t.Fatal(err)
	}

	// Baseline: the manifest chain holds a standing pin per current
	// master file even with no scans live.
	desc, err := db.Engine.MS.Get("sc")
	if err != nil {
		t.Fatal(err)
	}
	files := listTree(t, db, desc.Location)
	base := 0
	for _, p := range files {
		base += db.FS.Pins(p)
	}

	// A mid-flight stream holds extra snapshot pins on the master
	// files (the table is more batches than a stream has in flight, so
	// the producer is still scanning — and still pinning — while we hold
	// the iterator).
	rows, err := s.Query("SELECT id, v FROM sc")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("empty stream: %v", rows.Err())
	}
	pinned := 0
	for _, p := range files {
		pinned += db.FS.Pins(p)
	}
	if pinned <= base {
		t.Fatalf("live stream holds no extra file pins (%d, baseline %d)", pinned, base)
	}

	// A live async job; Close must await its goroutine.
	job, err := s.Submit("SELECT COUNT(*) FROM sc")
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}

	// The job goroutine has fully wound down (done channel closed).
	select {
	case <-job.Done():
	default:
		t.Fatal("job still running after Close")
	}

	// The stream was closed and its snapshot pins dropped back to the
	// baseline.
	for rows.Next() {
		t.Fatal("closed session's Rows still yields rows")
	}
	after := 0
	for _, p := range files {
		after += db.FS.Pins(p)
	}
	if after != base {
		t.Fatalf("pins after Close = %d, want baseline %d", after, base)
	}

	// Everything on the closed session fails with the typed sentinel.
	if _, err := s.Exec("SELECT 1"); !errors.Is(err, dualtable.ErrSessionClosed) {
		t.Fatalf("Exec after Close = %v, want ErrSessionClosed", err)
	}
	if _, err := s.Query("SELECT id FROM sc"); !errors.Is(err, dualtable.ErrSessionClosed) {
		t.Fatalf("Query after Close = %v, want ErrSessionClosed", err)
	}
	if _, err := s.Prepare("SELECT id FROM sc"); !errors.Is(err, dualtable.ErrSessionClosed) {
		t.Fatalf("Prepare after Close = %v, want ErrSessionClosed", err)
	}
	if _, err := s.Submit("SELECT 1"); !errors.Is(err, dualtable.ErrSessionClosed) {
		t.Fatalf("Submit after Close = %v, want ErrSessionClosed", err)
	}

	// No pins linger: a DROP from a fresh session reclaims the table
	// immediately instead of deferring behind leaked snapshots.
	other := db.Session()
	other.MustExec("DROP TABLE sc")
	if db.FS.Exists(desc.Location) {
		t.Fatalf("%s not reclaimed after DROP — leaked pins", desc.Location)
	}
}

// TestSessionCloseAbortsInFlightStatement checks Close cancels a
// statement blocked inside the engine (via the session's close
// context) rather than waiting for it.
func TestSessionCloseAbortsInFlightStatement(t *testing.T) {
	db := openDB(t)
	s := db.Session()
	s.MustExec("CREATE TABLE ab (id BIGINT, v DOUBLE) STORED AS DUALTABLE")
	for i := 0; i < 50; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO ab VALUES (%d, %d.0)", i, i))
	}
	rows, err := s.Query("SELECT id, v FROM ab")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("empty stream: %v", rows.Err())
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Close()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a live stream")
	}
	for rows.Next() {
	}
}

// listTree returns every regular file under dir, recursively.
func listTree(t *testing.T, db *dualtable.DB, dir string) []string {
	t.Helper()
	infos, err := db.FS.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, fi := range infos {
		if fi.IsDir {
			out = append(out, listTree(t, db, fi.Path)...)
		} else {
			out = append(out, fi.Path)
		}
	}
	return out
}
