package hive

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/freelist"
	"dualtable/internal/orcfile"
)

// seedStreamTable loads files × perFile rows (id, v, s), one file and so
// one split per load.
func seedStreamTable(t *testing.T, e *Engine, files, perFile int) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE st (id BIGINT, v DOUBLE, s STRING) STORED AS ORC")
	for f := 0; f < files; f++ {
		rows := make([]datum.Row, perFile)
		for i := range rows {
			id := int64(f*perFile + i)
			rows[i] = datum.Row{datum.Int(id), datum.Float(float64(id) / 2), datum.String_(fmt.Sprintf("s%d", id%10))}
		}
		if _, err := e.BulkLoad("st", rows); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamLimitCutsBatches: the streaming sink applies LIMIT a batch
// at a time — it reserves what is left of the limit, truncates the batch
// that crosses it and cancels the job on the batch that delivers the
// last row — and the result is exactly n rows and no error, for limits
// on every side of a batch boundary, whether one task fills the limit or
// four race for it, read by row or by batch.
func TestStreamLimitCutsBatches(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := testEngine(t)
		e.MR.Parallelism = workers
		seedStreamTable(t, e, 4, 2*orcfile.DefaultBatchRows+100)
		for _, limit := range []int{1, 1023, 1024, 1025, 5000} {
			q := fmt.Sprintf("SELECT id, s FROM st WHERE v >= 0 LIMIT %d", limit)
			for round := 0; round < 20; round++ {
				rows, err := e.QueryCtx(nil, q)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				if round%2 == 0 {
					for rows.Next() {
						n++
					}
				} else {
					for b := rows.NextBatch(); b != nil; b = rows.NextBatch() {
						if b.Len == 0 || len(b.Cols) != 2 || b.Cols[0].Len() != b.Len {
							t.Fatalf("%s: batch of %d rows, %d columns, column 0 of %d", q, b.Len, len(b.Cols), b.Cols[0].Len())
						}
						n += b.Len
					}
				}
				if err := rows.Err(); err != nil {
					t.Fatalf("workers=%d %s: Err = %v after %d rows", workers, q, err, n)
				}
				rows.Close()
				if n != limit {
					t.Fatalf("workers=%d round %d: %s delivered %d rows", workers, round, q, n)
				}
			}
		}
	}
}

// fillResultBatches empties the result-batch free list and fills it to
// its bound with batches of the test's own, which it returns. A
// statement then borrows only these (it never has so many in flight that
// the list runs dry), so once the statement is over the list must hold
// exactly these again: one fewer is a batch that was dropped, a repeat
// is a batch handed back twice.
func fillResultBatches() map[*datum.Batch]bool {
	drainResultBatches()
	own := map[*datum.Batch]bool{}
	for len(own) < freelist.Size {
		b := new(datum.Batch)
		own[b] = true
		resultBatches.Put(b)
	}
	return own
}

func drainResultBatches() []*datum.Batch {
	var held []*datum.Batch
	for {
		select {
		case b := <-resultBatches:
			held = append(held, b)
		default:
			return held
		}
	}
}

func checkResultBatchesReturned(t *testing.T, what string, own map[*datum.Batch]bool) {
	t.Helper()
	held := drainResultBatches()
	seen := map[*datum.Batch]bool{}
	for _, b := range held {
		if !own[b] {
			t.Errorf("%s: the list holds a batch constructed during the statement", what)
		}
		if seen[b] {
			t.Errorf("%s: a batch was handed back twice", what)
		}
		seen[b] = true
	}
	if len(held) != len(own) {
		t.Errorf("%s: %d of %d borrowed batches are back on the list", what, len(held), len(own))
	}
}

// TestResultBatchesBorrowedAndReturned: however a streamed result ends —
// drained, closed after its first row, cancelled in the middle of a
// batch, cut by LIMIT — and for a materialized one, every result batch
// borrowed for it is back on the free list once Close has returned.
func TestResultBatchesBorrowedAndReturned(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := testEngine(t)
		e.MR.Parallelism = workers
		seedStreamTable(t, e, 4, 4*orcfile.DefaultBatchRows)
		const stream = "SELECT id, v, s FROM st WHERE v >= 0"
		for _, tc := range []struct {
			name string
			sql  string
			read func(rows *Rows, cancel context.CancelFunc)
		}{
			{"drained", stream, func(rows *Rows, _ context.CancelFunc) {
				for rows.Next() {
				}
			}},
			{"drained by batch", stream, func(rows *Rows, _ context.CancelFunc) {
				for rows.NextBatch() != nil {
				}
			}},
			{"early close", stream, func(rows *Rows, _ context.CancelFunc) { rows.Next() }},
			{"cancelled mid-batch", stream, func(rows *Rows, cancel context.CancelFunc) {
				for i := 0; i < orcfile.DefaultBatchRows/2 && rows.Next(); i++ {
				}
				cancel()
				for rows.Next() {
				}
				if !errors.Is(rows.Err(), context.Canceled) {
					t.Errorf("workers=%d: Err after cancel = %v", workers, rows.Err())
				}
			}},
			{"limit", stream + " LIMIT 1500", func(rows *Rows, _ context.CancelFunc) {
				for rows.Next() {
				}
			}},
			{"materialized", "SELECT id, s FROM st ORDER BY id DESC", func(rows *Rows, _ context.CancelFunc) {
				for i := 0; i < 1500 && rows.Next(); i++ {
				}
			}},
			{"top-n", "SELECT id, s FROM st ORDER BY v DESC LIMIT 7", func(rows *Rows, _ context.CancelFunc) {
				for rows.Next() {
				}
			}},
		} {
			what := fmt.Sprintf("workers=%d %s", workers, tc.name)
			own := fillResultBatches()
			ctx, cancel := context.WithCancel(context.Background())
			rows, err := e.QueryCtx(&ExecContext{Ctx: ctx}, tc.sql)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			tc.read(rows, cancel)
			rows.Close()
			cancel()
			checkResultBatchesReturned(t, what, own)
		}
	}
	drainResultBatches() // leave nothing of this test's behind
}
