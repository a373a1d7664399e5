// Fixture for the emitcopy analyzer: the copy-on-shuffle ownership
// contract from internal/mapred — rows passed to an Emitter are
// engine-owned afterwards, and the input row Map receives (or the
// batch MapBatch receives) is a reader-owned buffer reused between
// records (batches).
package fixture

type Row []int

type ColumnVector struct{ Ints []int }

type Batch struct {
	Len  int
	Cols []ColumnVector
}

type BatchEmitter func(b *Batch) (bool, error)

type BatchCollector interface {
	CollectBatch(b *Batch) (bool, error)
}

type RecordBatch struct {
	Len  int
	Cols []ColumnVector
	Sel  []int32
}

type RecordMeta struct{ RecordID uint64 }

type Emitter func(key []byte, value Row) error

type mapper struct {
	saved []Row
	last  Row
	byKey map[string]Row
	batch *RecordBatch
	vec   *ColumnVector
	live  []int32
	sels  [][]int32
	sum   int
}

// --- violations ---

func (m *mapper) Map(row Row, meta RecordMeta, emit Emitter) error {
	out := make(Row, 0, len(row))
	out = append(out, row...)
	if err := emit(nil, out); err != nil {
		return err
	}
	m.saved = append(m.saved, out) // want `append retains a row already passed to emit`
	m.last = row                   // want `assignment retains the reader-owned input row`
	return nil
}

func (m *mapper) MapIndexed(row Row, meta RecordMeta, emit Emitter) error {
	m.byKey["k"] = row // want `assignment retains the reader-owned input row`
	return nil
}

func (m *mapper) MapBatch(b *RecordBatch, emit Emitter) error {
	m.batch = b                    // want `assignment retains the reader-owned input batch`
	m.vec = &b.Cols[0]             // want `assignment retains the reader-owned input batch`
	m.live = b.Sel                 // want `assignment retains the reader-owned input batch`
	m.sels = append(m.sels, b.Sel) // want `append retains the reader-owned input batch`
	return nil
}

// A join mapper narrows every surviving record into one row it reuses
// across shuffle emits (the engine copies). Keeping that row is a
// finding: the next record overwrites what was kept.
type joinMapper struct {
	row     Row
	keyBuf  []byte
	pending []Row
}

func (m *joinMapper) MapBatch(b *RecordBatch, emit Emitter) error {
	row := m.row[:1]
	for i := 0; i < b.Len; i++ {
		row[0] = b.Cols[0].Ints[i]
		if err := emit(m.keyBuf, row); err != nil {
			return err
		}
		m.pending = append(m.pending, row) // want `append retains a row already passed to emit`
	}
	return nil
}

// A mapper of column batches hands its sink a result batch the sink may
// keep. Every way of building that batch out of the reader's storage is
// a finding: the reader refills it while the sink's consumer still
// reads.
type batchMapper struct {
	emitBatch BatchEmitter
	sink      BatchCollector
	out       *Batch
}

func (m *batchMapper) MapBatch(b *RecordBatch, emit Emitter) error {
	m.out.Cols[0] = b.Cols[0]                                                // want `assignment retains the reader-owned input batch`
	m.out.Cols[0].Ints = b.Cols[0].Ints[:b.Len]                              // want `assignment retains the reader-owned input batch`
	m.out.Cols[0].Ints = b.Cols[0].Ints                                      // want `assignment retains the reader-owned input batch`
	if _, err := m.emitBatch(&Batch{Len: b.Len, Cols: b.Cols}); err != nil { // want `the batch sink is handed the reader-owned input batch`
		return err
	}
	if _, err := m.emitBatch(&Batch{Len: 1, Cols: []ColumnVector{b.Cols[0]}}); err != nil { // want `the batch sink is handed the reader-owned input batch`
		return err
	}
	if _, err := m.emitBatch(&Batch{Len: 1, Cols: []ColumnVector{{Ints: b.Cols[0].Ints[2:]}}}); err != nil { // want `the batch sink is handed the reader-owned input batch`
		return err
	}
	_, err := m.sink.CollectBatch(&Batch{Cols: b.Cols[1:]}) // want `the batch sink is handed the reader-owned input batch`
	return err
}

// --- legal patterns (must stay silent) ---

// The batch mapper as it should be: the result batch is filled by
// copying — scalar reads, spread appends — and then handed over.
func (m *batchMapper) MapBatchCopies(b *RecordBatch, emit Emitter) error {
	out := m.out
	out.Len = b.Len
	out.Cols[0].Ints = append(out.Cols[0].Ints[:0], b.Cols[0].Ints...)
	for i := 0; i < b.Len; i++ {
		out.Cols[0].Ints[i] = b.Cols[0].Ints[i]
	}
	kept, err := m.emitBatch(out)
	if kept {
		m.out = nil
	}
	return err
}

// The join mapper as it should be: one key buffer and one narrowed row
// per task, refilled per record, nothing kept.
func (m *joinMapper) MapBatchReuses(b *RecordBatch, emit Emitter) error {
	for i := 0; i < b.Len; i++ {
		m.row[0] = b.Cols[0].Ints[i]
		m.keyBuf = append(m.keyBuf[:0], byte(m.row[0]))
		if err := emit(m.keyBuf, m.row); err != nil {
			return err
		}
	}
	return nil
}

// The batch idioms: scalar reads off vectors and the selection, a
// spread copy of the selection, emitting a fresh row per record, and
// handing the batch to a helper for the duration of the call.
func (m *mapper) MapBatchCopies(b *RecordBatch, emit Emitter) error {
	m.live = append(m.live[:0], b.Sel...)
	for i := 0; i < b.Len; i++ {
		if b.Sel != nil {
			m.sum += int(b.Sel[0])
		}
		v := &b.Cols[0] // a local alias dies with the call
		m.sum += v.Ints[i]
		if err := emit(nil, Row{b.Cols[0].Ints[i]}); err != nil {
			return err
		}
	}
	return sumBatch(b, &m.sum)
}

func sumBatch(b *RecordBatch, into *int) error { *into += b.Len; return nil }

// Retain a copy, emit the copy's source: element-wise append (spread)
// clones the backing array.
func (m *mapper) MapCopies(row Row, meta RecordMeta, emit Emitter) error {
	cp := append(Row(nil), row...)
	m.saved = append(m.saved, cp)
	return emit(nil, cp2(row))
}

func cp2(r Row) Row { return append(Row(nil), r...) }

// The bounded top-N idiom: retain rows while collecting (no emit in
// Map), hand them to the collector at Flush — ownership transfers at
// the emit and the heap is dropped afterwards.
func (m *mapper) Flush(emit Emitter) error {
	for _, r := range m.saved {
		if err := emit(nil, r); err != nil {
			return err
		}
	}
	m.saved = nil
	return nil
}

// Reusing one output buffer across shuffle emits is the documented
// fast path (the engine copies on shuffle emit): building and
// emitting a fresh row per record stays silent.
func (m *mapper) MapFresh(row Row, meta RecordMeta, emit Emitter) error {
	for i := range row {
		out := Row{row[i]}
		if err := emit(nil, out); err != nil {
			return err
		}
	}
	return nil
}
