package hive

import (
	"slices"

	"dualtable/internal/datum"
	"dualtable/internal/mapred"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// execJoin materializes both sides and runs a reduce-side equi-join.
func (e *Engine) execJoin(ec *ExecContext, j *sqlparser.JoinRef, meter *sim.Meter) (*relation, error) {
	left, err := e.buildRelation(ec, j.Left, nil, meter)
	if err != nil {
		return nil, err
	}
	defer left.Release()
	right, err := e.buildRelation(ec, j.Right, nil, meter)
	if err != nil {
		return nil, err
	}
	defer right.Release()
	combined := left.sc.concat(right.sc)
	leftWidth := len(left.sc.cols)
	rightWidth := len(right.sc.cols)

	// Extract equi-join keys from the ON condition: l = r with one
	// side over the left input and the other over the right, either way
	// round.
	var leftKeyFns, rightKeyFns []evalFn
	var residual []sqlparser.Expr
	for _, conj := range sqlparser.SplitConjuncts(j.On) {
		if bin, ok := conj.(*sqlparser.BinaryExpr); ok && bin.Op == "=" {
			l, r := bin.L, bin.R
			if !e.refsResolveIn(l, left.sc) || !e.refsResolveIn(r, right.sc) {
				l, r = r, l
			}
			if e.refsResolveIn(l, left.sc) && e.refsResolveIn(r, right.sc) {
				lf, err := e.compileExpr(ec, l, left.sc)
				if err != nil {
					return nil, err
				}
				rf, err := e.compileExpr(ec, r, right.sc)
				if err != nil {
					return nil, err
				}
				leftKeyFns = append(leftKeyFns, lf)
				rightKeyFns = append(rightKeyFns, rf)
				continue
			}
		}
		residual = append(residual, conj)
	}
	var residualFn evalFn
	if len(residual) > 0 {
		residualFn, err = e.compileExpr(ec, sqlparser.CombineConjuncts(residual), combined)
		if err != nil {
			return nil, err
		}
	}

	// Tag inputs: left rows get tag 0, right rows tag 1 (appended as
	// a trailing datum so one mapper can tell them apart).
	var splits []mapred.InputSplit
	for _, s := range left.splits {
		splits = append(splits, &taggedSplit{inner: s, tag: 0})
	}
	for _, s := range right.splits {
		splits = append(splits, &taggedSplit{inner: s, tag: 1})
	}

	joinType := j.Type
	job := &mapred.Job{
		Name:   "join",
		Splits: splits,
		NewMapper: func() mapred.Mapper {
			nullSeq := int64(0)
			var keyBuf []byte
			var keyRow datum.Row
			return mapred.MapFunc(func(row datum.Row, _ mapred.RecordMeta, emit mapred.Emitter) error {
				tag := row[len(row)-1].I
				data := row[:len(row)-1]
				keyFns := leftKeyFns
				if tag == 1 {
					keyFns = rightKeyFns
				}
				keyRow = keyRow[:0]
				hasNull := false
				for _, fn := range keyFns {
					d, err := fn(data)
					if err != nil {
						return err
					}
					if d.IsNull() {
						hasNull = true
					}
					keyRow = append(keyRow, d)
				}
				// The engine copies the key on emit, so one buffer
				// serves the whole task.
				switch {
				case len(keyFns) == 0:
					keyBuf = append(keyBuf[:0], 0x01) // cartesian: single group
				case hasNull:
					// NULL keys never match; isolate in unique groups.
					nullSeq++
					keyBuf = datum.SortableKey(append(keyBuf[:0], 0x00, byte(tag)), datum.Int(nullSeq))
				default:
					keyBuf = datum.SortableRowKey(append(keyBuf[:0], 0x01), keyRow)
				}
				return emit(keyBuf, row) // row still carries the tag
			})
		},
		NewReducer: func() mapred.Reducer {
			return mapred.ReduceFunc(func(_ []byte, rows []datum.Row, emit mapred.Emitter) error {
				var lefts, rights []datum.Row
				for _, r := range rows {
					if r[len(r)-1].I == 0 {
						lefts = append(lefts, r[:len(r)-1])
					} else {
						rights = append(rights, r[:len(r)-1])
					}
				}
				leftMatched := make([]bool, len(lefts))
				rightMatched := make([]bool, len(rights))
				for li, l := range lefts {
					for ri, r := range rights {
						out := make(datum.Row, 0, leftWidth+rightWidth)
						out = append(out, l...)
						out = append(out, r...)
						if residualFn != nil {
							ok, err := residualFn(out)
							if err != nil {
								return err
							}
							if !ok.Truthy() {
								continue
							}
						}
						leftMatched[li] = true
						rightMatched[ri] = true
						if err := emit(nil, out); err != nil {
							return err
						}
					}
				}
				if joinType == sqlparser.JoinLeft || joinType == sqlparser.JoinFull {
					for li, l := range lefts {
						if !leftMatched[li] {
							out := make(datum.Row, leftWidth+rightWidth)
							copy(out, l)
							if err := emit(nil, out); err != nil {
								return err
							}
						}
					}
				}
				if joinType == sqlparser.JoinRight || joinType == sqlparser.JoinFull {
					for ri, r := range rights {
						if !rightMatched[ri] {
							out := make(datum.Row, leftWidth+rightWidth)
							copy(out[leftWidth:], r)
							if err := emit(nil, out); err != nil {
								return err
							}
						}
					}
				}
				return nil
			})
		},
	}
	res, err := e.MR.RunContext(ec.Context(), job)
	if err != nil {
		return nil, err
	}
	meter.AddSeconds(res.SimSeconds)
	return materialized(combined, slices.Concat(left.names, right.names), res.Rows), nil
}

// taggedSplit appends a tag datum to every row of the wrapped split.
type taggedSplit struct {
	inner mapred.InputSplit
	tag   int64
}

func (t *taggedSplit) Open(m *sim.Meter) (mapred.RecordReader, error) {
	rr, err := t.inner.Open(m)
	if err != nil {
		return nil, err
	}
	return &taggedReader{inner: rr, tag: datum.Int(t.tag)}, nil
}

func (t *taggedSplit) Length() int64 { return t.inner.Length() }

type taggedReader struct {
	inner mapred.RecordReader
	tag   datum.Datum
}

func (r *taggedReader) Next() (datum.Row, mapred.RecordMeta, error) {
	row, meta, err := r.inner.Next()
	if err != nil {
		return nil, meta, err
	}
	out := make(datum.Row, 0, len(row)+1)
	out = append(out, row...)
	out = append(out, r.tag)
	return out, meta, nil
}

func (r *taggedReader) Close() error { return r.inner.Close() }
