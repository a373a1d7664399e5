package driver_test

import (
	"database/sql"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dualtable"
	"dualtable/internal/datum"
	"dualtable/internal/server"
)

// BenchmarkWireMixedWorkload is the end-to-end serving benchmark: N
// concurrent database/sql clients run a mixed workload of point
// UPDATEs (1 in 4 operations) and UNION READ scans against one
// dtserver over TCP. Reported metrics: throughput in qps and p99
// statement latency in ms. A development instrument, run once in CI so
// it cannot rot; the comparable serving numbers are bench/'s
// serve_point and serve_stream workloads (BENCHMARK.json).
func BenchmarkWireMixedWorkload(b *testing.B)   { runWireMixed(b, 8, 0) }
func BenchmarkWireMixedWorkload64(b *testing.B) { runWireMixed(b, 64, 0) }

// BenchmarkWireSlowClientMix adds 4 pathological clients to the
// 64-client workload: each opens a window=1 streaming scan, consumes
// one batch, then stops granting flow-control credits. The server's
// progress watchdog must reap them (ErrSlowClient, pins released,
// gate slot freed) fast enough that the healthy clients' p99 stays
// insulated — compare against BenchmarkWireMixedWorkload64.
func BenchmarkWireSlowClientMix(b *testing.B) { runWireMixed(b, 64, 4) }

func runWireMixed(b *testing.B, clients, slowClients int) {
	srv, _, addr := startServer(b, server.Config{
		MaxConcurrent:   16,
		QueueDepth:      256,
		QueueWait:       time.Minute,
		ProgressTimeout: 250 * time.Millisecond,
	})
	defer srv.Close()

	setup := openSQL(b, addr, "")
	if _, err := setup.Exec(`CREATE TABLE bench (id BIGINT, grp BIGINT, v DOUBLE) STORED AS DUALTABLE`); err != nil {
		b.Fatal(err)
	}
	var vals strings.Builder
	const rows = 1024
	for i := 0; i < rows; i++ {
		if i > 0 {
			vals.WriteString(", ")
		}
		fmt.Fprintf(&vals, "(%d, %d, %d.0)", i, i%16, i)
	}
	if _, err := setup.Exec(`INSERT INTO bench VALUES ` + vals.String()); err != nil {
		b.Fatal(err)
	}
	// Fold the seed into master files so scans are real UNION READs
	// (masters merged with the attached edits the benchmark writes).
	if _, err := setup.Exec(`COMPACT TABLE bench`); err != nil {
		b.Fatal(err)
	}

	// One connection per client, as a TCP client would run.
	dbs := make([]*benchClient, clients)
	for c := range dbs {
		db := openSQL(b, addr, "")
		db.SetMaxOpenConns(1)
		upd, err := db.Prepare(`UPDATE bench SET v = v + 1 WHERE id = ?`)
		if err != nil {
			b.Fatal(err)
		}
		scan, err := db.Prepare(`SELECT id, v FROM bench WHERE grp = ? AND v >= ?`)
		if err != nil {
			b.Fatal(err)
		}
		dbs[c] = &benchClient{upd: upd, scan: scan, rng: rand.New(rand.NewSource(int64(c + 1)))}
	}

	// Pathological clients: take one batch of a window=1 scan, then
	// sit on the stream without granting credits until the server's
	// progress watchdog reaps the op; repeat.
	stopSlow := make(chan struct{})
	var slowWG sync.WaitGroup
	for i := 0; i < slowClients; i++ {
		db := openSQL(b, addr, "window=1")
		db.SetMaxOpenConns(1)
		slowWG.Add(1)
		go func() {
			defer slowWG.Done()
			for {
				select {
				case <-stopSlow:
					return
				default:
				}
				rows, err := db.Query(`SELECT id, v FROM bench`)
				if err != nil {
					continue
				}
				rows.Next() // consume one batch, then starve the stream
				select {
				case <-stopSlow:
				case <-time.After(2 * time.Second):
				}
				rows.Close()
			}
		}()
	}

	var (
		mu   sync.Mutex
		lats []time.Duration
	)
	var wg sync.WaitGroup
	work := make(chan int)

	b.ResetTimer()
	start := time.Now()
	for _, cl := range dbs {
		wg.Add(1)
		go func(cl *benchClient) {
			defer wg.Done()
			local := make([]time.Duration, 0, 1024)
			for op := range work {
				t0 := time.Now()
				if err := cl.do(op); err != nil {
					b.Error(err)
					break
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(cl)
	}
	for i := 0; i < b.N; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	close(stopSlow)
	slowWG.Wait()

	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p99 := lats[len(lats)*99/100]
		if len(lats)*99/100 >= len(lats) {
			p99 = lats[len(lats)-1]
		}
		b.ReportMetric(float64(len(lats))/elapsed.Seconds(), "qps")
		b.ReportMetric(float64(p99.Microseconds())/1000.0, "p99_ms")
	}
}

// BenchmarkInprocMixedReference runs the identical mixed workload on
// an in-process session — the baseline the wire numbers are compared
// against (the delta is the serving layer's full cost: framing, TCP,
// admission control, per-op goroutines).
func BenchmarkInprocMixedReference(b *testing.B) {
	db, err := dualtable.Open(dualtable.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	s := db.Session()
	s.MustExec(`CREATE TABLE bench (id BIGINT, grp BIGINT, v DOUBLE) STORED AS DUALTABLE`)
	var vals strings.Builder
	for i := 0; i < 1024; i++ {
		if i > 0 {
			vals.WriteString(", ")
		}
		fmt.Fprintf(&vals, "(%d, %d, %d.0)", i, i%16, i)
	}
	s.MustExec(`INSERT INTO bench VALUES ` + vals.String())
	s.MustExec(`COMPACT TABLE bench`)
	upd, err := s.Prepare(`UPDATE bench SET v = v + 1 WHERE id = ?`)
	if err != nil {
		b.Fatal(err)
	}
	scan, err := s.Prepare(`SELECT id, v FROM bench WHERE grp = ? AND v >= ?`)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 0 {
			if _, err := upd.Exec(int64(rng.Intn(1024))); err != nil {
				b.Fatal(err)
			}
			continue
		}
		rows, err := scan.Query(int64(rng.Intn(16)), 0.0)
		if err != nil {
			b.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
		rows.Close()
	}
}

// benchClient is one simulated TCP client: a point-update statement
// and a filtered scan statement, both prepared server-side.
type benchClient struct {
	upd  *sql.Stmt
	scan *sql.Stmt
	rng  *rand.Rand
}

// do runs one operation: every 4th is a point UPDATE, the rest are
// streaming UNION READ scans over one of the 16 row groups.
func (c *benchClient) do(op int) error {
	if op%4 == 0 {
		_, err := c.upd.Exec(int64(c.rng.Intn(1024)))
		return err
	}
	rows, err := c.scan.Query(int64(c.rng.Intn(16)), 0.0)
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
		var id int64
		var v float64
		if err := rows.Scan(&id, &v); err != nil {
			return err
		}
	}
	return rows.Err()
}

// BenchmarkWireStream is the result path alone: one client streams all
// 32 768 rows of a clean 4-file table shaped like bench's serve_stream
// (two BIGINTs, two DOUBLEs, two short STRINGs) and scans every row into
// typed destinations. Reported: rows/s, and B/row allocated by server
// and client together — what is left once neither side builds a row is
// the boxing of the values database/sql is handed. A development
// instrument like the others here; the comparable number is serve_stream
// (BENCHMARK.json).
func BenchmarkWireStream(b *testing.B) {
	_, srvDB, addr := startServer(b, server.Config{})
	if _, err := srvDB.Exec(`CREATE TABLE big (id BIGINT, grp BIGINT, v DOUBLE, w DOUBLE, tag STRING, day STRING) STORED AS DUALTABLE`); err != nil {
		b.Fatal(err)
	}
	const files, perFile = 4, 8192
	rng := rand.New(rand.NewSource(1))
	for f := 0; f < files; f++ {
		rows := make([]datum.Row, perFile)
		for i := range rows {
			id := int64(f*perFile + i)
			rows[i] = datum.Row{datum.Int(id), datum.Int(id % 64),
				datum.Float(float64(rng.Intn(400000)) / 4), datum.Float(float64(rng.Intn(1000))),
				datum.String_(fmt.Sprintf("tag-%02d", rng.Intn(97))),
				datum.String_(fmt.Sprintf("2014-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28)))}
		}
		if _, err := srvDB.Engine.BulkLoad("big", rows); err != nil {
			b.Fatal(err)
		}
	}
	db := openSQL(b, addr, "")
	db.SetMaxOpenConns(1)
	st, err := db.Prepare(`SELECT id, grp, v, w, tag, day FROM big WHERE id >= ?`)
	if err != nil {
		b.Fatal(err)
	}
	stream := func() {
		rows, err := st.Query(int64(0))
		if err != nil {
			b.Fatal(err)
		}
		var id, grp int64
		var v, w float64
		var tag, day string
		n := 0
		for rows.Next() {
			if err := rows.Scan(&id, &grp, &v, &w, &tag, &day); err != nil {
				b.Fatal(err)
			}
			n++
		}
		if err := rows.Err(); err != nil || n != files*perFile {
			b.Fatalf("streamed %d rows, err %v", n, err)
		}
		rows.Close()
	}
	stream() // warm: plan cache, free lists, the conn's buffers
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	streamed := float64(b.N * files * perFile)
	b.ReportMetric(streamed/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/streamed, "B/row")
}
