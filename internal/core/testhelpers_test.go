package core

import (
	"fmt"
	"testing"

	"dualtable/internal/hive"
	"dualtable/internal/metastore"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// forcePlan makes the engine's DUALTABLE DML run as a session that SET
// dualtable.force.plan = plan would ("" = cost-model selection): tests
// here drive the engine without a session, so a decorator around h
// (forcedPlan) supplies the session's settings. Call it between
// statements only.
func forcePlan(e *hive.Engine, h *Handler, plan string) {
	vars := hive.NewSessionVars()
	vars.Set(hive.VarForcePlan, plan)
	e.RegisterHandler(metastore.StorageDual, forcedPlan{h, &hive.ExecContext{Vars: vars}})
}

type forcedPlan struct {
	*Handler
	ec *hive.ExecContext
}

func (f forcedPlan) ExecUpdate(_ *hive.ExecContext, e *hive.Engine, desc *metastore.TableDesc, stmt *sqlparser.UpdateStmt, l *sim.Ledger) (int64, string, error) {
	return f.Handler.ExecUpdate(f.ec, e, desc, stmt, l)
}

func (f forcedPlan) ExecDelete(_ *hive.ExecContext, e *hive.Engine, desc *metastore.TableDesc, stmt *sqlparser.DeleteStmt, l *sim.Ledger) (int64, string, error) {
	return f.Handler.ExecDelete(f.ec, e, desc, stmt, l)
}

// hintRatio pins a DML statement's ratio estimate (the designer-given
// α/β of §IV) the way a session's SetRatioHint would, with the plan
// left to the cost model.
func hintRatio(t *testing.T, e *hive.Engine, h *Handler, sql string, ratio float64) {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	key, err := h.StatementKey(stmt)
	if err != nil {
		t.Fatal(err)
	}
	vars := hive.NewSessionVars()
	vars.SetRatioHint(key, ratio)
	e.RegisterHandler(metastore.StorageDual, forcedPlan{h, &hive.ExecContext{Vars: vars}})
}

// updateAlias re-exports the parser's UpdateStmt for test helpers.
type updateAlias = sqlparser.UpdateStmt

// parseUpdate parses an UPDATE statement for tests.
func parseUpdate(sql string) (*sqlparser.UpdateStmt, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	up, ok := stmt.(*sqlparser.UpdateStmt)
	if !ok {
		return nil, fmt.Errorf("not an UPDATE: %T", stmt)
	}
	return up, nil
}

// snapshotFiles returns the current epoch's master files (footers
// open), as a scan or the cost model would see them.
func snapshotFiles(t *testing.T, h *Handler, desc *metastore.TableDesc) []masterFile {
	t.Helper()
	snap, err := h.OpenSnapshot(desc)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	return snap.files
}
