package hive

import (
	"fmt"

	"dualtable/internal/datum"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// execInsert runs INSERT INTO / INSERT OVERWRITE.
func (e *Engine) execInsert(ec *ExecContext, s *sqlparser.InsertStmt) (*ResultSet, error) {
	// INSERT OVERWRITE destroys the target's current contents; under a
	// session-wide read.epoch pin its source SELECT would silently read
	// historical data, so it is refused like UPDATE/DELETE. An explicit
	// AS OF EPOCH clause in the source is still allowed — that is the
	// intentional "roll the table back to epoch n" idiom. Plain INSERT
	// INTO stays legal: appending historical rows (e.g. into a backup
	// table) is additive and a primary use of time travel.
	if s.Overwrite {
		if err := rejectDMLUnderReadEpoch(ec, "INSERT OVERWRITE"); err != nil {
			return nil, err
		}
	}
	desc, err := e.MS.Get(s.Table)
	if err != nil {
		return nil, err
	}
	ledger := sim.NewLedger(&e.MR.Params)
	n, err := e.writeTable(desc, s.Overwrite, func(of mapred.OutputFactory) (int64, error) {
		if s.Select != nil {
			return e.insertSelect(ec, s, desc, of, ledger)
		}
		rows, err := e.valuesRows(ec, s, desc)
		if err != nil {
			return 0, err
		}
		return int64(len(rows)), e.writeRows(ec, rows, 0, of, ledger)
	})
	if err != nil {
		return nil, err
	}
	return &ResultSet{Affected: n, SimSeconds: ledger.Seconds(), Counts: ledger.Counts(), Plan: "INSERT"}, nil
}

// valuesRows evaluates an INSERT's VALUES rows, coerced to the target.
func (e *Engine) valuesRows(ec *ExecContext, s *sqlparser.InsertStmt, desc *metastore.TableDesc) ([]datum.Row, error) {
	var rows []datum.Row
	emptySc := &scope{}
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(desc.Schema) {
			return nil, fmt.Errorf("hive: INSERT into %s: VALUES row has %d columns, table has %d",
				s.Table, len(exprRow), len(desc.Schema))
		}
		row := make(datum.Row, len(exprRow))
		for i, x := range exprRow {
			fn, err := e.compileExpr(ec, x, emptySc)
			if err != nil {
				return nil, err
			}
			row[i], err = fn(nil)
			if err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}
	for _, r := range rows {
		if err := desc.Schema.CoerceRow(r); err != nil {
			return nil, fmt.Errorf("hive: INSERT into %s: %w", s.Table, err)
		}
	}
	return rows, nil
}

// execUpdate routes UPDATE: handlers with native DML (KV, DualTable)
// run their own plan; ORC/Text tables get the Hive-classic INSERT
// OVERWRITE rewrite (the paper's Listing 2).
func (e *Engine) execUpdate(ec *ExecContext, s *sqlparser.UpdateStmt) (*ResultSet, error) {
	if err := rejectDMLUnderReadEpoch(ec, "UPDATE"); err != nil {
		return nil, err
	}
	desc, err := e.MS.Get(s.Table)
	if err != nil {
		return nil, err
	}
	if err := checkSetTargets(s, desc); err != nil {
		return nil, err
	}
	h, err := e.Handler(desc.Storage)
	if err != nil {
		return nil, err
	}
	if dml, ok := h.(DMLHandler); ok {
		ledger := sim.NewLedger(&e.MR.Params)
		n, plan, err := dml.ExecUpdate(ec, e, desc, s, ledger)
		if err != nil {
			return nil, err
		}
		return &ResultSet{Affected: n, SimSeconds: ledger.Seconds(), Counts: ledger.Counts(), Plan: plan}, nil
	}
	ins, err := RewriteUpdateToOverwrite(s, desc)
	if err != nil {
		return nil, err
	}
	rs, err := e.execInsert(ec, ins)
	if err != nil {
		return nil, err
	}
	rs.Plan = "OVERWRITE-REWRITE"
	return rs, nil
}

// checkSetTargets rejects a SET list that names an unknown column or
// assigns one column twice. It runs before any plan is chosen, so the
// same statement cannot succeed under EDIT (last cell wins) and fail
// under OVERWRITE.
func checkSetTargets(s *sqlparser.UpdateStmt, desc *metastore.TableDesc) error {
	seen := make(map[int]bool, len(s.Sets))
	for _, set := range s.Sets {
		idx := desc.Schema.ColumnIndex(set.Column)
		if idx < 0 {
			return fmt.Errorf("hive: UPDATE %s: unknown column %q", s.Table, set.Column)
		}
		if seen[idx] {
			return fmt.Errorf("hive: UPDATE %s: column %q assigned twice", s.Table, set.Column)
		}
		seen[idx] = true
	}
	return nil
}

// execDelete routes DELETE like execUpdate.
func (e *Engine) execDelete(ec *ExecContext, s *sqlparser.DeleteStmt) (*ResultSet, error) {
	if err := rejectDMLUnderReadEpoch(ec, "DELETE"); err != nil {
		return nil, err
	}
	desc, err := e.MS.Get(s.Table)
	if err != nil {
		return nil, err
	}
	h, err := e.Handler(desc.Storage)
	if err != nil {
		return nil, err
	}
	if dml, ok := h.(DMLHandler); ok {
		ledger := sim.NewLedger(&e.MR.Params)
		n, plan, err := dml.ExecDelete(ec, e, desc, s, ledger)
		if err != nil {
			return nil, err
		}
		return &ResultSet{Affected: n, SimSeconds: ledger.Seconds(), Counts: ledger.Counts(), Plan: plan}, nil
	}
	ins, err := RewriteDeleteToOverwrite(s, desc)
	if err != nil {
		return nil, err
	}
	rs, err := e.execInsert(ec, ins)
	if err != nil {
		return nil, err
	}
	rs.Plan = "OVERWRITE-REWRITE"
	return rs, nil
}

// RewriteUpdateToOverwrite translates
//
//	UPDATE t SET c1 = v1, ... WHERE p
//
// into the equivalent full-table rewrite Hive requires (paper
// Listing 2):
//
//	INSERT OVERWRITE TABLE t
//	SELECT ..., IF(p, v1, c1) AS c1, ... FROM t [alias]
//
// Every row and every column is read and written back — the I/O
// amplification the paper's cost model charges the OVERWRITE plan
// for.
func RewriteUpdateToOverwrite(s *sqlparser.UpdateStmt, desc *metastore.TableDesc) (*sqlparser.InsertStmt, error) {
	if err := checkSetTargets(s, desc); err != nil {
		return nil, err
	}
	setFor := map[int]sqlparser.Expr{}
	for _, set := range s.Sets {
		setFor[desc.Schema.ColumnIndex(set.Column)] = set.Value
	}
	sel := &sqlparser.SelectStmt{Limit: -1}
	qual := s.Alias
	if qual == "" {
		qual = s.Table
	}
	for i, col := range desc.Schema {
		ref := &sqlparser.ColumnRef{Table: qual, Name: col.Name}
		var item sqlparser.Expr = ref
		if v, ok := setFor[i]; ok {
			if s.Where != nil {
				item = &sqlparser.FuncCall{Name: "IF", Args: []sqlparser.Expr{s.Where, v, ref}}
			} else {
				item = v
			}
		}
		sel.Items = append(sel.Items, sqlparser.SelectItem{Expr: item, Alias: col.Name})
	}
	sel.From = &sqlparser.TableName{Name: s.Table, Alias: s.Alias}
	return &sqlparser.InsertStmt{Overwrite: true, Table: s.Table, Select: sel}, nil
}

// RewriteDeleteToOverwrite translates
//
//	DELETE FROM t WHERE p
//
// into
//
//	INSERT OVERWRITE TABLE t SELECT * FROM t WHERE NOT (p surely true)
//
// Rows where p is NULL (unknown) are kept, matching SQL DELETE
// semantics.
func RewriteDeleteToOverwrite(s *sqlparser.DeleteStmt, desc *metastore.TableDesc) (*sqlparser.InsertStmt, error) {
	sel := &sqlparser.SelectStmt{Limit: -1}
	qual := s.Alias
	if qual == "" {
		qual = s.Table
	}
	for _, col := range desc.Schema {
		sel.Items = append(sel.Items, sqlparser.SelectItem{
			Expr:  &sqlparser.ColumnRef{Table: qual, Name: col.Name},
			Alias: col.Name,
		})
	}
	sel.From = &sqlparser.TableName{Name: s.Table, Alias: s.Alias}
	if s.Where != nil {
		// Keep rows where the predicate is not definitely true:
		// NOT(p) OR p IS NULL.
		sel.Where = &sqlparser.BinaryExpr{
			Op: "OR",
			L:  &sqlparser.UnaryExpr{Op: "NOT", X: s.Where},
			R:  &sqlparser.IsNullExpr{X: s.Where},
		}
	} else {
		// DELETE without WHERE: truncate.
		sel.Where = &sqlparser.Literal{Value: datum.Bool(false)}
	}
	return &sqlparser.InsertStmt{Overwrite: true, Table: s.Table, Select: sel}, nil
}
