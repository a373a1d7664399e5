package core

import (
	"fmt"
	"strconv"
	"strings"

	"dualtable/internal/costmodel"
	"dualtable/internal/datum"
	"dualtable/internal/freelist"
	"dualtable/internal/hive"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// ExecUpdate implements the paper's UPDATE flow (§III-C, §V-A): the
// cost model picks OVERWRITE or EDIT; OVERWRITE becomes the classic
// INSERT OVERWRITE rewrite, EDIT runs the UPDATE UDTF — a map-only
// job over UNION READ splits that writes the new values of changed
// cells into the attached table keyed by record ID.
func (h *Handler) ExecUpdate(ec *hive.ExecContext, e *hive.Engine, desc *metastore.TableDesc, stmt *sqlparser.UpdateStmt, l *sim.Ledger) (int64, string, error) {
	return h.execDML(ec, e, desc, stmt, l)
}

// ExecDelete implements DELETE with the same plan selection; the EDIT
// plan's DELETE UDTF puts one delete marker per matching record.
func (h *Handler) ExecDelete(ec *hive.ExecContext, e *hive.Engine, desc *metastore.TableDesc, stmt *sqlparser.DeleteStmt, l *sim.Ledger) (int64, string, error) {
	return h.execDML(ec, e, desc, stmt, l)
}

// execDML runs an UPDATE or DELETE: the EDIT plan if edit chose it,
// else the INSERT OVERWRITE rewrite, which takes the table's writer
// again before it reads the table.
func (h *Handler) execDML(ec *hive.ExecContext, e *hive.Engine, desc *metastore.TableDesc, stmt sqlparser.Statement, l *sim.Ledger) (int64, string, error) {
	n, overwrite, err := h.edit(ec, e, desc, stmt, l)
	if !overwrite {
		return n, "EDIT", err
	}
	var ins *sqlparser.InsertStmt
	if upd, ok := stmt.(*sqlparser.UpdateStmt); ok {
		ins, err = hive.RewriteUpdateToOverwrite(upd, desc)
	} else {
		ins, err = hive.RewriteDeleteToOverwrite(stmt.(*sqlparser.DeleteStmt), desc)
	}
	if err != nil {
		return 0, "", err
	}
	rs, err := e.ExecuteStmtCtx(ec, ins)
	if err != nil {
		return 0, "", err
	}
	l.Add(rs.Counts, rs.SimSeconds)
	return rs.Affected, "OVERWRITE", nil
}

// edit chooses the plan of an UPDATE or DELETE and runs it if it is
// EDIT. Under the table's writer it pins one snapshot: the §IV workload
// is sized from it and the EDIT UDTF scans it. OVERWRITE reports
// overwrite with both released.
func (h *Handler) edit(ec *hive.ExecContext, e *hive.Engine, desc *metastore.TableDesc, stmt sqlparser.Statement, l *sim.Ledger) (n int64, overwrite bool, err error) {
	// Writers serialize against each other (and COMPACT); snapshot
	// scans run untouched throughout.
	st := h.state(desc.Name)
	st.writer.Lock()
	defer st.writer.Unlock()
	snap, err := h.OpenSnapshot(desc)
	if err != nil {
		return 0, false, err
	}
	defer snap.Release()
	key, err := h.StatementKey(stmt)
	if err != nil {
		return 0, false, err
	}
	w, ratioSrc := h.workloadFor(ec, desc, stmt, key, snap.files)
	var plan costmodel.Plan
	var delta float64
	jobName := "dualtable-delete-udtf"
	if _, ok := stmt.(*sqlparser.UpdateStmt); ok {
		plan, delta = h.model.ChooseUpdate(w)
		jobName = "dualtable-update-udtf"
	} else {
		plan, delta = h.model.ChooseDelete(w)
	}
	plan = h.applyForce(ec, plan)
	h.logPlan(ec, PlanDecision{
		Table: desc.Name, Statement: stmt.String(), Plan: plan,
		Ratio: w.Ratio, RatioSrc: ratioSrc, CostDelta: delta,
	})
	if plan == costmodel.PlanOverwrite {
		return 0, true, nil
	}
	n, err = h.runEdit(ec, e, desc, stmt, key, jobName, snap, l, w)
	return n, false, err
}

// applyForce resolves plan forcing: the session's
// "dualtable.force.plan" setting overrides the cost model's choice
// (unset or empty keeps it).
func (h *Handler) applyForce(ec *hive.ExecContext, plan costmodel.Plan) costmodel.Plan {
	force, _ := ec.Var(hive.VarForcePlan)
	switch strings.ToUpper(force) {
	case "EDIT":
		return costmodel.PlanEdit
	case "OVERWRITE":
		return costmodel.PlanOverwrite
	default:
		return plan
	}
}

// workloadFor builds the cost-model workload for a statement with
// estimator key key: D and row counts from the pinned snapshot's master
// files, α/β from hint → history → stripe-statistics estimate →
// default, k from the session setting, else defaultFollowingReads. The
// second result names the ratio-estimate source.
func (h *Handler) workloadFor(ec *hive.ExecContext, desc *metastore.TableDesc, stmt sqlparser.Statement, key string, files []masterFile) (costmodel.Workload, string) {
	var bytes, rows int64
	for _, f := range files {
		bytes += f.size
		rows += f.rows
	}
	avgRow := 100.0
	if rows > 0 {
		avgRow = float64(bytes) / float64(rows)
	}

	// Stripe-statistics selectivity estimate (upper bound): fraction
	// of rows in stripes that could match the WHERE predicate.
	var where sqlparser.Expr
	var qual, table string
	upd, _ := stmt.(*sqlparser.UpdateStmt)
	if upd != nil {
		where, qual, table = upd.Where, upd.Alias, upd.Table
	} else {
		del := stmt.(*sqlparser.DeleteStmt) // StatementKey accepted stmt
		where, qual, table = del.Where, del.Alias, del.Table
	}
	if qual == "" {
		qual = table
	}
	statsEst := h.statsSelectivity(desc, files, where, qual)

	var ratio float64
	var src string
	if r, ok := ec.RatioHint(key); ok {
		// The designer's hint for this session wins over history.
		ratio, src = r, "session-hint"
	} else {
		ratio, src = h.est.Estimate(key, statsEst)
	}

	// k resolution: session setting > default.
	k := float64(defaultFollowingReads)
	if ks, ok := ec.Var(hive.VarFollowingReads); ok {
		if v, err := strconv.ParseFloat(ks, 64); err == nil {
			k = v
		}
	}
	w := costmodel.Workload{
		TableBytes:     bytes,
		TableRows:      rows,
		Ratio:          ratio,
		FollowingReads: k,
		AvgRowBytes:    avgRow,
		MarkerBytes:    markerBytes,
	}
	if upd != nil {
		// Updated payload: encoded size estimate of the SET columns.
		var payload float64
		for _, set := range upd.Sets {
			idx := desc.Schema.ColumnIndex(set.Column)
			if idx < 0 {
				continue
			}
			switch desc.Schema[idx].Kind {
			case datum.KindInt, datum.KindFloat:
				payload += 12
			case datum.KindBool:
				payload += 4
			default:
				payload += 24
			}
		}
		if payload == 0 {
			payload = avgRow
		}
		w.UpdatedBytesPerRow = payload
	}
	return w, src
}

// StatementKey returns the estimator key of an UPDATE or DELETE
// statement: its text with every number and string literal masked to
// '?', so recurring statements with different constants (dates, codes)
// share history — the "historical analysis of the execution log" of
// §IV. Sessions use it to pin designer-given ratios
// (SessionVars.SetRatioHint), as §IV allows.
func (h *Handler) StatementKey(stmt sqlparser.Statement) (string, error) {
	var prefix string
	switch s := stmt.(type) {
	case *sqlparser.UpdateStmt:
		prefix = "U:" + strings.ToLower(s.Table)
	case *sqlparser.DeleteStmt:
		prefix = "D:" + strings.ToLower(s.Table)
	default:
		return "", fmt.Errorf("core: statement keys exist only for UPDATE/DELETE, got %T", stmt)
	}
	return prefix + ":" + sqlparser.RewriteStatement(stmt, maskLiteral).String(), nil
}

// maskLiteral turns an int, float or string literal into a '?'.
// TRUE, FALSE and NULL stay: they name a case, not a constant.
func maskLiteral(e sqlparser.Expr) sqlparser.Expr {
	if lit, ok := e.(*sqlparser.Literal); ok {
		switch lit.Value.K {
		case datum.KindInt, datum.KindFloat, datum.KindString:
			return &sqlparser.Placeholder{}
		}
	}
	return e
}

// statsSelectivity estimates the matching fraction from ORC stripe
// statistics: rows in stripes that MaybeMatch / total rows. Returns
// -1 when no estimate is possible.
func (h *Handler) statsSelectivity(desc *metastore.TableDesc, files []masterFile, where sqlparser.Expr, qualifier string) float64 {
	if where == nil {
		return 1
	}
	sarg := hive.ExtractSearchArg(where, qualifier, desc.Schema)
	if sarg == nil {
		return -1
	}
	var total, matching int64
	for _, f := range files {
		for s := 0; s < f.reader.NumStripes(); s++ {
			rows := f.reader.StripeRows(s)
			total += rows
			if sarg.MaybeMatches(f.reader.StripeStats(s)) {
				matching += rows
			}
		}
	}
	if total == 0 {
		return -1
	}
	return float64(matching) / float64(total)
}

// runEdit is the EDIT plan of both statements — §V-A's UPDATE and
// DELETE UDTFs: the DML scan over the snapshot's UNION READ splits with
// an editSink that puts the changed cells (or one delete marker per
// record) into the attached table keyed by record ID, then the measured
// ratio fed back to the estimator under key. The caller holds the
// table's writer.
func (h *Handler) runEdit(ec *hive.ExecContext, e *hive.Engine, desc *metastore.TableDesc, stmt sqlparser.Statement, key, jobName string, snap *Snapshot, l *sim.Ledger, w costmodel.Workload) (int64, error) {
	// The writes carry timestamps above the snapshot watermark, so the
	// scan cannot see them (no Halloween problem) and they become
	// visible atomically at the watermark publish below. A job that
	// fails or is canceled mid-flight leaves its partial cells orphaned
	// above the watermark; they surface when the table's next writer
	// publishes — the same no-DML-transaction semantics the
	// pre-snapshot code had (where partial writes were visible
	// immediately), deferred to a commit boundary.
	affected, err := e.RunDMLScan(ec, desc, stmt, jobName, snap.Splits(ScanOptions{}), l, func(setCols []int) hive.DMLSink {
		return &editSink{att: snap.att, setCols: setCols}
	})
	if err != nil {
		return 0, err
	}
	if err := h.publish(desc, nil, false); err != nil {
		return 0, err
	}
	if w.TableRows > 0 {
		// Feed the measured modification ratio back into the historical
		// estimator.
		h.est.Observe(key, float64(affected)/float64(w.TableRows))
	}
	return affected, nil
}

// editSink is one EDIT task's writer: attached-table cells in put
// batches of 1024. An UPDATE record whose new values all equal the old
// ones writes nothing and does not count as affected.
type editSink struct {
	att     *kvstore.Table
	setCols []int // nil = DELETE
	batch   []*kvstore.Cell
}

func (s *editSink) Apply(tm *sim.Meter, recordID uint64, row datum.Row, vals []datum.Datum) (bool, error) {
	key := RecordID(recordID).Key()
	if s.setCols == nil {
		// §V-A: "the DELETE UDTF only takes the name of the table and
		// puts a DELETE marker for each deleted row".
		s.batch = append(s.batch, &kvstore.Cell{
			Row:       key,
			Family:    attachedFamily,
			Qualifier: []byte(deleteQualifier),
			Type:      kvstore.TypePut,
			Value:     []byte{1},
		})
	} else {
		changed := false
		for k, nv := range vals {
			if datum.Equal(nv, row[s.setCols[k]]) {
				continue // no-op write elided
			}
			changed = true
			s.batch = append(s.batch, &kvstore.Cell{
				Row:       key,
				Family:    attachedFamily,
				Qualifier: []byte(strconv.Itoa(s.setCols[k])),
				Type:      kvstore.TypePut,
				Value:     datum.AppendDatum(nil, nv),
			})
		}
		if !changed {
			return false, nil
		}
	}
	if len(s.batch) >= 1024 {
		if err := s.att.Put(s.batch, tm); err != nil {
			return false, err
		}
		s.batch = s.batch[:0]
	}
	return true, nil
}

func (s *editSink) Flush(tm *sim.Meter) error {
	if len(s.batch) == 0 {
		return nil
	}
	return s.att.Put(s.batch, tm)
}

// Compact implements the COMPACT operation (§III-C): a UNION READ
// over the table's pinned snapshot rewritten into a fresh master file
// set, published as a new epoch with the attached table cleared.
// Unlike the paper's "all the other operations will be blocked during
// COMPACT", only *writers* block (the per-table writer lock): scans
// pin their own snapshots and proceed concurrently, and a scan that
// raced the compaction returns byte-identical rows to a pre-compaction
// scan of the same epoch. The rewrite runs under the caller's
// context: canceling it aborts the job between records, discards the
// staged files and releases the writer lock with the table unchanged
// (nothing was published).
func (h *Handler) Compact(ec *hive.ExecContext, e *hive.Engine, desc *metastore.TableDesc, l *sim.Ledger) error {
	if err := ec.Err(); err != nil {
		return err
	}
	st := h.state(desc.Name)
	st.writer.Lock()
	defer st.writer.Unlock()
	if err := ec.Err(); err != nil {
		// Canceled while waiting for the writer lock: do no work.
		return err
	}

	snap, err := h.OpenSnapshot(desc)
	if err != nil {
		return err
	}
	defer snap.Release()
	// Stage: rewrite the snapshot through UNION READ into fresh master
	// files. They live in the master directory but no manifest names
	// them yet, so concurrent scans cannot see them.
	factory := &masterOutputFactory{h: h, desc: desc, dir: masterDir(desc)}
	job := &mapred.Job{
		Name:      "dualtable-compact",
		Splits:    snap.Splits(ScanOptions{}),
		NewMapper: func() mapred.Mapper { return &compactMapper{} },
		Output:    factory,
	}
	res, err := e.MR.RunContext(ec.Context(), job)
	if err != nil {
		factory.discard()
		return err
	}
	if hook := h.compactStagedHook(); hook != nil {
		hook(desc.Name)
	}
	// Last cancellation point: once the manifest publishes, the
	// compaction is committed. A cancel landing before this discards
	// the staged files and leaves the table at its current epoch.
	if err := ec.Err(); err != nil {
		factory.discard()
		return err
	}
	// Publish: one atomic manifest swap makes the rewrite current,
	// truncates the attached table, and hands the superseded masters
	// to deferred deletion (they outlive the swap exactly as long as
	// pinned snapshots still read them).
	if err := h.publish(desc, factory.files(), true); err != nil {
		factory.discard()
		return err
	}
	l.Add(res.Counts, res.SimSeconds)
	return nil
}

// compactBatches lends compactMapper its result batches.
var compactBatches = freelist.New[datum.Batch]()

// compactMapper is COMPACT's map side: it hands each UNION READ batch's
// live records to the task's writer as one batch. The scan's vectors
// are the reader's to refill, so the records are copied into a batch of
// the mapper's own (ColumnVector.Gather), not handed on in place.
type compactMapper struct {
	emitBatch mapred.BatchEmitter
	out       *datum.Batch // borrowed; the writer's once it keeps it
	all       []int32      // 0, 1, …: the selection of a batch with no Sel
}

func (m *compactMapper) SetBatchEmitter(emit mapred.BatchEmitter) { m.emitBatch = emit }

func (m *compactMapper) MapBatch(b *mapred.RecordBatch, _ mapred.Emitter) error {
	sel := b.Sel
	if sel == nil {
		for len(m.all) < b.Len {
			m.all = append(m.all, int32(len(m.all)))
		}
		sel = m.all[:b.Len]
	}
	if len(sel) == 0 {
		return nil
	}
	if m.out == nil {
		m.out = compactBatches.Get()
	}
	m.out.Shape(len(b.Cols), len(sel))
	for j := range b.Cols {
		m.out.Cols[j].Gather(&b.Cols[j], sel)
	}
	kept, err := m.emitBatch(m.out)
	if kept {
		m.out = nil
	}
	return err
}

func (m *compactMapper) Flush(mapred.Emitter) error { return nil }

func (m *compactMapper) Close() error {
	if m.out != nil {
		compactBatches.Put(m.out)
		m.out = nil
	}
	return nil
}
