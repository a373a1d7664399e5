package dualtable_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dualtable"
)

// writeStorages are the five storages an INSERT writes into.
var writeStorages = []string{"ORC", "TEXT", "HBASE", "ACID", "DUALTABLE"}

// loadRows inserts ids [from, to) into name as (id, id % 10) rows, 1 000
// to a statement, so the table holds several files.
func loadRows(db *dualtable.DB, name string, from, to int) {
	for lo := from; lo < to; lo += 1000 {
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", name)
		for id := lo; id < min(lo+1000, to); id++ {
			if id > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", id, id%10)
		}
		db.MustExec(sb.String())
	}
}

// tableState renders what a failed write must leave as it was: the
// table's rows, the files under its location, and a DUALTABLE's
// manifest.
func tableState(t *testing.T, db *dualtable.DB, name string) string {
	t.Helper()
	var b strings.Builder
	rows := renderRows(db.MustExec("SELECT * FROM " + name))
	slices.Sort(rows)
	fmt.Fprintf(&b, "%d rows: %s\n", len(rows), strings.Join(rows, " "))
	desc, err := db.Engine.MS.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(dir string)
	walk = func(dir string) {
		infos, err := db.FS.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range infos {
			if fi.IsDir {
				walk(fi.Path)
			} else {
				fmt.Fprintf(&b, "%s %d\n", fi.Path, fi.Size)
			}
		}
	}
	if db.FS.Exists(desc.Location) { // an HBASE table keeps none
		walk(desc.Location)
	}
	if desc.Storage.String() == "DUALTABLE" {
		man, err := db.Engine.MS.CurrentManifest(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "epoch %d: %+v\n", man.Epoch, man.Files)
	}
	return b.String()
}

// TestFailedInsertSelectLeavesTable: an INSERT INTO and an INSERT
// OVERWRITE … SELECT whose last row fails to coerce to the target (a
// STRING 'x' into BIGINT) return the error, and the target's rows,
// files and manifest stay as they were on every storage — whether its
// rows were collected before the write or written by the SELECT's own
// job as they came.
func TestFailedInsertSelectLeavesTable(t *testing.T) {
	db := openDiffDB(t, 4, false)
	db.MustExec("CREATE TABLE src (id BIGINT, s STRING) STORED AS ORC")
	for lo := 0; lo < 3000; lo += 1000 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO src VALUES ")
		for id := lo; id < lo+1000; id++ {
			if id > lo {
				sb.WriteString(", ")
			}
			s := fmt.Sprintf("'%d'", id)
			if id == 2999 {
				s = "'x'"
			}
			fmt.Fprintf(&sb, "(%d, %s)", id, s)
		}
		db.MustExec(sb.String())
	}
	for _, storage := range writeStorages {
		name := "w_" + strings.ToLower(storage)
		db.MustExec(fmt.Sprintf("CREATE TABLE %s (id BIGINT, k BIGINT) STORED AS %s", name, storage))
		loadRows(db, name, 0, 20)
		before := tableState(t, db, name)
		for _, verb := range []string{"INTO", "OVERWRITE TABLE"} {
			_, err := db.Exec(fmt.Sprintf("INSERT %s %s SELECT id, s FROM src", verb, name))
			if err == nil || !strings.Contains(err.Error(), `"x"`) {
				t.Errorf("%s: INSERT %s: error %v, want the coercion of 'x'", storage, verb, err)
			}
			if after := tableState(t, db, name); after != before {
				t.Errorf("%s: a failed INSERT %s changed the table:\nbefore %s\nafter  %s", storage, verb, before, after)
			}
		}
	}
}

// TestInsertOverwriteFromItself: INSERT OVERWRITE t SELECT … FROM t
// WHERE … keeps exactly the rows the WHERE selects on every storage. On
// HBASE it passes only because the source is read whole before the
// truncating overwrite writes.
func TestInsertOverwriteFromItself(t *testing.T) {
	db := openDiffDB(t, 4, false)
	for _, storage := range writeStorages {
		name := "s_" + strings.ToLower(storage)
		db.MustExec(fmt.Sprintf("CREATE TABLE %s (id BIGINT, k BIGINT) STORED AS %s", name, storage))
		loadRows(db, name, 0, 3000)
		rs := db.MustExec(fmt.Sprintf("INSERT OVERWRITE TABLE %s SELECT id, k + 1 FROM %s WHERE id %% 3 = 0", name, name))
		if rs.Affected != 1000 {
			t.Errorf("%s: INSERT OVERWRITE wrote %d rows, want 1000", storage, rs.Affected)
		}
		got := renderRows(db.MustExec("SELECT id, k FROM " + name))
		slices.Sort(got)
		var want []string
		for id := 0; id < 3000; id += 3 {
			want = append(want, fmt.Sprintf("%d\t%d", id, id%10+1))
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: %d rows after the overwrite, want the %d it selected", storage, len(got), len(want))
		}
	}
}

// TestInsertSelectShapesMatchBaseline: every shape of SELECT an INSERT
// can write — map-only, a GROUP BY written from its reduce tasks, and
// the shapes collected first (a global aggregate, ORDER BY … LIMIT,
// DISTINCT, no FROM) — leaves a DUALTABLE holding what the ORC baseline,
// which collects every result, holds, and reports the same count.
func TestInsertSelectShapesMatchBaseline(t *testing.T) {
	db := openDiffDB(t, 4, false)
	db.MustExec("CREATE TABLE src (id BIGINT, k BIGINT) STORED AS DUALTABLE")
	loadRows(db, "src", 0, 5000)
	for _, q := range []string{
		"SELECT id * 2, k FROM src WHERE k < 4",
		"SELECT k * 1.5, IF(k = 2, NULL, id) FROM src WHERE k >= 1", // DOUBLE and NULLs into BIGINT
		"SELECT k, COUNT(*) FROM src GROUP BY k HAVING COUNT(*) > 0",
		"SELECT SUM(id), MAX(k) FROM src WHERE id < 0",
		"SELECT id, k FROM src ORDER BY id DESC LIMIT 7",
		"SELECT DISTINCT k, k FROM src",
		"SELECT 1, 2",
	} {
		var got [2][]string
		var n [2]int64
		for i, storage := range []string{"ORC", "DUALTABLE"} {
			name := "shape_" + strings.ToLower(storage)
			db.MustExec(fmt.Sprintf("DROP TABLE IF EXISTS %s", name))
			db.MustExec(fmt.Sprintf("CREATE TABLE %s (a BIGINT, b BIGINT) STORED AS %s", name, storage))
			n[i] = db.MustExec(fmt.Sprintf("INSERT INTO %s %s", name, q)).Affected
			got[i] = renderRows(db.MustExec("SELECT * FROM " + name))
			slices.Sort(got[i])
		}
		if n[0] != n[1] || !slices.Equal(got[0], got[1]) {
			t.Errorf("%s: ORC wrote %d rows %v, DUALTABLE %d rows %v", q, n[0], got[0], n[1], got[1])
		}
	}
}
