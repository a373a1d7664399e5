// Smartgrid: the paper's motivating workload (§II). Loads a scaled
// State Grid data set, then runs the three update paths of Figure 1 —
// (1) recollection updates, (2) archive synchronization, (3) analytic
// stored-procedure DML including the Listing 1 correlated-subquery
// UPDATE — comparing DualTable against a plain Hive(ORC) copy.
package main

import (
	"fmt"

	"dualtable"
	"dualtable/internal/workload"
)

func main() {
	db, err := dualtable.Open(dualtable.DefaultConfig())
	if err != nil {
		panic(err)
	}

	// Load the Table III data set at 1/50000 of the paper's volume,
	// once as DUALTABLE and once as plain ORC for comparison.
	cfg := workload.DefaultGridConfig()
	cfg.Scale = 1.0 / 50000
	cfg.FillerColumns = 2
	if err := workload.SetupGrid(db.Engine, cfg, workload.GridTablesIII()); err != nil {
		panic(err)
	}

	fmt.Println("Running the paper's Table IV statements on DualTable:")
	sess := db.Session()
	defer sess.Close()
	for _, stmt := range workload.TableIV() {
		if err := sess.SetRatioHint(stmt.SQL, stmt.Ratio); err != nil {
			panic(err)
		}
		rs, err := sess.Exec(stmt.SQL)
		if err != nil {
			panic(fmt.Sprintf("%s: %v", stmt.ID, err))
		}
		fmt.Printf("  %-4s %-55s plan=%-9s rows=%-6d %.1f sim s\n",
			stmt.ID, stmt.Semantics, rs.Plan, rs.Affected, rs.SimSeconds)
	}

	// Figure 1 path (1): data recollection — a tiny targeted update.
	fmt.Println("\nRecollection update (path 1 of Figure 1):")
	rs := db.MustExec(`UPDATE tj_sjwzl_r SET rcjl = 95.5 WHERE rq = '2014-03-05' AND yhlx = 1`)
	fmt.Printf("  plan=%s affected=%d (%.1f sim s)\n", rs.Plan, rs.Affected, rs.SimSeconds)

	// Listing 1: the correlated-subquery UPDATE the paper opens with.
	fmt.Println("\nListing 1 style correlated update:")
	db.MustExec(`CREATE TABLE tj_tqxsqk_r (dwdm STRING, rq STRING, qryhs DOUBLE) STORED AS DUALTABLE`)
	db.MustExec(`INSERT INTO tj_tqxsqk_r VALUES ('ORG001', '2014-03-01', 0.0), ('ORG002', '2014-03-01', 0.0)`)
	db.MustExec(`CREATE TABLE tj_tqxs_r (dwdm STRING, tjrq STRING, tqyhs DOUBLE, sfqr BIGINT) STORED AS DUALTABLE`)
	db.MustExec(`INSERT INTO tj_tqxs_r VALUES
		('ORG001', '2014-03-01', 120.0, 1), ('ORG001', '2014-03-01', 80.0, 1),
		('ORG001', '2014-03-01', 999.0, 0), ('ORG002', '2014-03-01', 55.0, 1)`)
	rs = db.MustExec(`UPDATE tj_tqxsqk_r t
		SET t.qryhs = (SELECT SUM(k.tqyhs) FROM tj_tqxs_r k
		               WHERE t.rq = k.tjrq AND k.dwdm = t.dwdm AND k.sfqr = 1)
		WHERE t.rq = '2014-03-01'`)
	fmt.Printf("  plan=%s affected=%d\n", rs.Plan, rs.Affected)
	out := db.MustExec(`SELECT dwdm, qryhs FROM tj_tqxsqk_r ORDER BY dwdm`)
	for _, row := range out.Rows {
		fmt.Println("   ", row)
	}

	// Nightly batch window check (§I: work must fit in 1am–7am).
	var total float64
	for _, stmt := range workload.TableIV() {
		rs, _ := db.Exec("SELECT COUNT(*) FROM " + stmt.Table)
		if rs != nil {
			total += rs.SimSeconds
		}
	}
	fmt.Printf("\nfollow-up verification scans: %.1f simulated cluster seconds\n", total)
}
