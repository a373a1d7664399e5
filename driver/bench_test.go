package driver_test

import (
	"database/sql"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dualtable"
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
