// Package dualtable is the public API of the DualTable reproduction:
// a hybrid storage model for update optimization in Hive (Hu et al.,
// ICDE 2015). It assembles the full simulated stack — an HDFS-like
// distributed file system, an HBase-like LSM key-value store, a
// MapReduce engine, and a Hive-like SQL layer — and registers the
// DualTable storage handler, whose cost model picks between OVERWRITE
// and EDIT plans for UPDATE/DELETE at run time.
//
// The API is organized around sessions, in the database/sql idiom.
// A *Session owns its settings (plan forcing, cost-model k, ratio
// hints — also reachable via SQL "SET key = value"), so concurrent
// clients with conflicting configurations never interfere:
//
//	db, _ := dualtable.Open(dualtable.DefaultConfig())
//	sess := db.Session()
//	sess.MustExec(`CREATE TABLE t (id BIGINT, v DOUBLE) STORED AS DUALTABLE`)
//	sess.MustExec(`INSERT INTO t VALUES (1, 10.0), (2, 20.0)`)
//	sess.MustExec(`SET dualtable.force.plan = EDIT`)
//	sess.MustExec(`UPDATE t SET v = 99.0 WHERE id = 2`)
//
// Prepared statements parse once (shared through an LRU plan cache)
// and bind '?' placeholders per execution:
//
//	ins, _ := sess.Prepare(`INSERT INTO t VALUES (?, ?)`)
//	ins.Exec(int64(3), 30.0)
//	ins.Exec(int64(4), 40.0)
//
// Queries stream: Session.Query returns a *Rows iterator that
// delivers rows while the MapReduce job runs, in bounded memory, and
// aborts the job on early Close or context cancellation:
//
//	rows, _ := sess.QueryContext(ctx, `SELECT id, v FROM t WHERE v > 15.0`)
//	defer rows.Close()
//	for rows.Next() {
//		var id int64
//		var v float64
//		rows.Scan(&id, &v)
//	}
//
// Table storage is versioned with epoch-numbered snapshot manifests:
// scans pin an immutable snapshot at open and read it to completion,
// so COMPACT and INSERT OVERWRITE never block reads — a scan racing a
// compaction returns byte-identical rows to a pre-compaction scan of
// the same epoch. Long statements run asynchronously on job handles
// while the session keeps serving snapshot reads:
//
//	job, _ := sess.Submit(`COMPACT TABLE t`)
//	st := job.Poll()            // RUNNING, never blocks
//	rs, err := job.Wait()       // or job.Cancel()
//
// The one-shot DB.Exec/DB.MustExec helpers remain as conveniences
// over a default session.
package dualtable

import (
	"fmt"

	"dualtable/internal/acid"
	"dualtable/internal/core"
	"dualtable/internal/costmodel"
	"dualtable/internal/dfs"
	"dualtable/internal/hive"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/sim"
)

// Config assembles a simulated cluster.
type Config struct {
	// Cluster holds the calibrated cost parameters (defaults to the
	// paper's 26-node grid cluster; sim.TPCHCluster() gives the
	// 10-node TPC-H cluster).
	Cluster sim.CostParams
	// Parallelism bounds real goroutine concurrency (0 = NumCPU).
	Parallelism int
}

// DefaultConfig mirrors the paper's cluster settings.
func DefaultConfig() Config {
	return Config{
		Cluster: sim.GridCluster(),
	}
}

// DB is an open DualTable instance: the SQL engine plus handles to
// every substrate for advanced use and instrumentation. Sessions
// created with DB.Session are the intended query interface; the DB
// methods operate on a shared default session.
type DB struct {
	Engine  *hive.Engine
	FS      *dfs.FileSystem
	KV      *kvstore.Cluster
	MR      *mapred.Cluster
	Handler *core.Handler

	def *Session
}

// ResultSet re-exports the engine result type.
type ResultSet = hive.ResultSet

// Open builds a fresh in-memory cluster and SQL engine.
func Open(cfg Config) (*DB, error) {
	if cfg.Cluster.Nodes == 0 {
		cfg.Cluster = sim.GridCluster()
	}
	fs := dfs.New(dfs.DefaultConfig())
	kv, err := kvstore.NewCluster(fs, "/hbase")
	if err != nil {
		return nil, err
	}
	mr := mapred.NewCluster(cfg.Cluster)
	mr.Parallelism = cfg.Parallelism
	engine, err := hive.NewEngine(hive.Config{FS: fs, KV: kv, MR: mr})
	if err != nil {
		return nil, err
	}
	handler, err := core.Register(engine)
	if err != nil {
		return nil, err
	}
	// The Hive-ACID-style baseline (STORED AS ACID) for ablations.
	if _, err := acid.Register(engine); err != nil {
		return nil, err
	}
	db := &DB{Engine: engine, FS: fs, KV: kv, MR: mr, Handler: handler}
	db.def = db.Session()
	// Startup recovery scan: sweep each table's master directory for
	// files no manifest in the chain (the retention window) names — the
	// residue of a crash between staging and publish — and reclaim
	// them. A fresh in-memory cluster has nothing to recover, so this is
	// a no-op here — but it anchors the recovery contract at the API
	// seam, and DB.Recover re-runs it on demand (chaos tests, embedding
	// hosts that rebuild engine state).
	if _, err := db.Recover(); err != nil {
		return nil, err
	}
	return db, nil
}

// Recover runs the crash-recovery scan: owed Unpins are paid first, then
// master files no manifest in the chain names — the chain holds exactly
// the retention window, so these were staged by a write that never
// published — are swept into the DFS's deferred deletion, and any
// condemned cleanup left over from faulted publishes is re-driven.
// Unpublished files hold no acknowledged rows, so recovery never loses
// a write and never resurrects deleted ones. Returns the orphan paths
// reclaimed. Safe to call at any time; it serializes with in-flight
// writers per table and never blocks scans.
func (db *DB) Recover() ([]string, error) { return db.Handler.RecoverOrphans() }

// Exec runs one SQL statement on the default session.
func (db *DB) Exec(sql string) (*ResultSet, error) { return db.def.Exec(sql) }

// ExecScript runs a semicolon-separated script on the default
// session, returning the last result.
func (db *DB) ExecScript(sql string) (*ResultSet, error) { return db.def.ExecScript(sql) }

// MustExec runs a statement and panics on error (examples, tests).
func (db *DB) MustExec(sql string) *ResultSet {
	rs, err := db.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("dualtable: %s: %v", sql, err))
	}
	return rs
}

// PlanLog returns the DualTable cost-model decisions made so far,
// across all sessions.
func (db *DB) PlanLog() []core.PlanDecision { return db.Handler.PlanLog() }

// CostModel exposes the §IV model for direct evaluation.
func (db *DB) CostModel() *costmodel.Model { return db.Handler.Model() }
