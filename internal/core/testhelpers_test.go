package core

import (
	"fmt"
	"testing"

	"dualtable/internal/metastore"
	"dualtable/internal/sqlparser"
)

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
