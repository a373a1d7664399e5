package bench

import (
	"bytes"
	"context"
	"database/sql"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"dualtable/driver"
	"dualtable/internal/core"
	"dualtable/internal/datum"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/orcfile"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
	"dualtable/internal/wire"
)

// ladder explains a workload's statement time layer by layer from
// outside: it times calls into each package's public functions against
// the workload's live tables. A round runs between statements of the
// traced replay (so it sees the table state the statements see); the
// final probes run once after it. Every call is a span.
type ladder struct {
	e    *env
	tr   *tracer
	desc *metastore.TableDesc
	proj []int
	att  *kvstore.Table
	// One probe connection per surface: the layer the server adds is
	// the wire time of a statement minus its in-process time, both
	// taken in the same ladder round under the same conditions.
	wireProbe conn
	sessProbe conn
	// samples collects raw probe values per metric name.
	samples map[string][]float64
	// probeSim sums the simulated seconds of in-process probe statements.
	probeSim                float64
	rounds                  int
	attempted, failed       int
	firstErr                string
	attachedPeak, snapFiles int64
	attachedLast            int64
}

func (e *env) desc(table string) (*metastore.TableDesc, error) {
	return e.db.Engine.MS.Get(table)
}

func newLadder(e *env, tr *tracer) (*ladder, error) {
	desc, err := e.desc(e.def.primary)
	if err != nil {
		return nil, err
	}
	l := &ladder{e: e, tr: tr, desc: desc, samples: map[string][]float64{}}
	for _, name := range e.def.projection {
		i := desc.Schema.ColumnIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("%s has no column %s", e.def.primary, name)
		}
		l.proj = append(l.proj, i)
	}
	if l.att, err = attachedTable(e, e.def.primary); err != nil {
		return nil, err
	}
	if l.wireProbe, err = dialWire(e.addr); err != nil {
		return nil, err
	}
	l.sessProbe = newSessConn(e.db)
	return l, nil
}

func (l *ladder) close() {
	l.wireProbe.close()
	l.sessProbe.close()
}

func (l *ladder) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

func (l *ladder) fail(what string, err error) {
	l.failed++
	if l.firstErr == "" {
		l.firstErr = "ladder " + what + ": " + err.Error()
	}
}

// probeClass tags spans that belong to no statement class. The spans
// of an in-process workload's own statements never carry a driver,
// server or wire name; those layers appear there only under this class.
const probeClass = "probe"

// stmtSpanName names a statement span after the surface it crossed.
func stmtSpanName(wire bool) string {
	if wire {
		return "driver.stmt"
	}
	return "hive.stmt"
}

// round runs the ladder once on the current table state: first the
// storage calls (the statement probes below may write and so move the
// state), then the slots' classes through both surfaces.
func (l *ladder) round(parent int) {
	l.storageRound(parent)
	l.rounds++
	def := l.e.def
	gen := l.e.gens[0]
	for _, sl := range []slot{def.main, def.second} {
		if sl.firstRow {
			continue // the same statement as the main slot, whose probe records its first row too
		}
		for i := 0; i < 2; i++ {
			// Alternate which surface goes first, so neither always
			// runs on the state the other left behind.
			overWire := (i == 0) == (l.rounds%2 == 0)
			c, key := l.sessProbe, "probe.inproc."
			class := sl.class.name
			if overWire {
				c, key = l.wireProbe, "probe.wire."
				if !def.wire {
					class = probeClass
				}
			}
			o := gen.probe(sl.class)
			id := l.tr.begin(parent, stmtSpanName(overWire), class)
			t0 := time.Now()
			res, err := c.run(&o)
			d := time.Since(t0)
			l.tr.end(id)
			l.attempted++
			if err == nil && o.check != nil {
				err = o.check(res)
			}
			if err != nil {
				l.fail(sl.class.name, err)
				continue
			}
			l.probeSim += res.sim
			l.add(key+sl.label, ms(d))
			if res.firstRow > 0 {
				l.add(key+sl.label+".first_row", ms(res.firstRow))
			}
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// repeatFor calls fn until budget is spent, at least once and at most
// max times, and returns the durations.
func repeatFor(budget time.Duration, max int, fn func() error) ([]time.Duration, error) {
	var out []time.Duration
	start := time.Now()
	for len(out) < max {
		t0 := time.Now()
		if err := fn(); err != nil {
			return out, err
		}
		out = append(out, time.Since(t0))
		if time.Since(start) >= budget {
			break
		}
	}
	return out, nil
}

// storageRound times the storage calls a scan of the primary table
// makes: snapshot open, UNION READ drain of every split, and under it
// the ORC open and decode of the same files with the same projection
// and the DFS read of their bytes.
func (l *ladder) storageRound(parent int) {
	h := l.e.db.Handler
	fs := l.e.db.FS

	// Snapshot open + release.
	span := l.tr.begin(parent, "core.snapshot_open", probeClass)
	ds, err := repeatFor(2*time.Millisecond, 10, func() error {
		s, err := h.OpenSnapshot(l.desc)
		if err != nil {
			return err
		}
		s.Release()
		return nil
	})
	l.tr.end(span)
	if err != nil {
		l.fail("snapshot open", err)
		return
	}
	for _, d := range ds {
		l.add("core.snapshot_open_us", us(d))
	}

	snap, err := h.OpenSnapshot(l.desc)
	if err != nil {
		l.fail("snapshot open", err)
		return
	}
	defer snap.Release()
	files := snap.Files()
	l.snapFiles = int64(len(files))
	if n, err := h.AttachedEntryCount(l.desc); err == nil {
		l.attachedLast = n
		if n > l.attachedPeak {
			l.attachedPeak = n
		}
	}

	// UNION READ drain of every split, one after the other.
	span = l.tr.begin(parent, "core.scan_drain", probeClass)
	t0 := time.Now()
	for _, sp := range snap.Splits(core.ScanOptions{Projection: l.proj}) {
		sid := l.tr.begin(span, "core.split_drain", probeClass)
		_, err := drainSplit(sp)
		l.tr.end(sid)
		if err != nil {
			l.tr.end(span)
			l.fail("scan drain", err)
			return
		}
	}
	drain := time.Since(t0)
	l.tr.end(span)
	l.add("core.scan_drain_ms", ms(drain))

	// The same files through orcfile alone.
	span = l.tr.begin(parent, "orcfile.scan", probeClass)
	var orcTotal time.Duration
	var orcRows, orcBytes int64
	for _, p := range files {
		open, decode, rows, size, err := l.orcFile(span, p)
		if err != nil {
			l.tr.end(span)
			l.fail("orc "+p, err)
			return
		}
		l.add("orcfile.open_us_per_file", us(open))
		orcTotal += open + decode
		orcRows += rows
		orcBytes += size
		if rows > 0 {
			l.add("orcfile.decode_ns_per_row", float64(decode)/float64(rows))
		}
	}
	l.tr.end(span)
	if orcRows > 0 {
		l.add("orcfile.bytes_per_row", float64(orcBytes)/float64(orcRows))
	}
	l.add("orcfile.scan_ms", ms(orcTotal))
	l.add("core.unionread_self_ms", ms(drain-orcTotal))

	// The files' bytes through the DFS alone.
	span = l.tr.begin(parent, "dfs.read", probeClass)
	t0 = time.Now()
	var read int64
	for _, p := range files {
		b, err := fs.ReadFile(p)
		if err != nil {
			l.tr.end(span)
			l.fail("dfs read", err)
			return
		}
		read += int64(len(b))
	}
	d := time.Since(t0)
	l.tr.end(span)
	if d > 0 {
		l.add("dfs.read_mb_per_s", float64(read)/1e6/d.Seconds())
	}

	// Flush of the attached table's memtable (empty unless a write
	// statement ran since the last flush).
	span = l.tr.begin(parent, "kvstore.flush", probeClass)
	t0 = time.Now()
	err = l.att.Flush(sim.NewMeter(nil))
	l.tr.end(span)
	if err != nil {
		l.fail("attached flush", err)
		return
	}
	l.add("kvstore.flush_ms", ms(time.Since(t0)))
}

// drainSplit reads a split to its end the way a map task does: in
// batches when the reader offers them.
func drainSplit(sp mapred.InputSplit) (int64, error) {
	rd, err := sp.Open(sim.NewMeter(nil))
	if err != nil {
		return 0, err
	}
	defer rd.Close()
	var n int64
	if br, ok := rd.(mapred.BatchRecordReader); ok {
		var b mapred.RecordBatch
		for {
			err := br.NextBatch(&b)
			if isEnd(err) {
				return n, nil
			}
			if err != nil {
				return n, err
			}
			n += int64(b.Len)
		}
	}
	for {
		_, _, err := rd.Next()
		if isEnd(err) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// isEnd recognises both end-of-stream sentinels: the engine's readers
// end with mapred.EOF, not io.EOF.
func isEnd(err error) bool { return errors.Is(err, mapred.EOF) || errors.Is(err, io.EOF) }

// orcFile opens one master file and decodes the projected columns.
func (l *ladder) orcFile(parent int, path string) (open, decode time.Duration, rows, size int64, err error) {
	r, err := l.e.db.FS.Open(path)
	if err != nil {
		return
	}
	defer r.Close()
	size = r.Size()
	id := l.tr.begin(parent, "orcfile.open", probeClass)
	t0 := time.Now()
	rd, err := orcfile.Open(r, size)
	open = time.Since(t0)
	l.tr.end(id)
	if err != nil {
		return
	}
	id = l.tr.begin(parent, "orcfile.decode", probeClass)
	t0 = time.Now()
	br := rd.NewBatchReader(orcfile.RowReaderOptions{Columns: l.proj})
	cols := make([]datum.ColumnVector, len(rd.Schema()))
	for {
		n, _, e := br.NextBatch(cols, 0)
		rows += int64(n)
		if e == io.EOF {
			break
		}
		if e != nil {
			err = e
			break
		}
	}
	decode = time.Since(t0)
	l.tr.end(id)
	return
}

// ---- probes that run once, after the traced replay ----

// final runs the layer probes that do not depend on where in its cycle
// the table is.
func (l *ladder) final() {
	root := l.tr.begin(0, "bench.layer_probes", probeClass)
	defer l.tr.end(root)
	for _, p := range []struct {
		name string
		fn   func(parent int) error
	}{
		{"wire", l.wireProbes},
		{"sqlparser", l.parserProbes},
		{"prepare", l.prepareProbes},
		{"mapred", l.mapredProbes},
		{"kvstore", l.kvProbes},
		{"orcfile write", l.orcWriteProbe},
		{"dfs write", l.dfsWriteProbe},
		{"driver", l.driverProbes},
	} {
		id := l.tr.begin(root, "bench.probe."+strings.ReplaceAll(p.name, " ", "_"), probeClass)
		err := p.fn(id)
		l.tr.end(id)
		if err != nil {
			l.fail(p.name, err)
		}
	}
}

// sampleRows returns up to n rows of the primary table.
func (l *ladder) sampleRows(n int) ([]datum.Row, error) {
	rs, err := l.e.db.Exec(fmt.Sprintf("SELECT * FROM %s LIMIT %d", l.e.def.primary, n))
	if err != nil {
		return nil, err
	}
	if len(rs.Rows) == 0 {
		return nil, fmt.Errorf("%s is empty", l.e.def.primary)
	}
	return rs.Rows, nil
}

// wireProbes times RowBatch encode and decode and CRC-framed I/O on
// 256-row batches of the primary table's own rows.
func (l *ladder) wireProbes(int) error {
	rows, err := l.sampleRows(256)
	if err != nil {
		return err
	}
	batch := &wire.RowBatch{OpID: 1, Rows: rows}
	var payload []byte
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		payload = batch.Encode()
		l.add("wire.rowbatch_encode_ns_per_row", float64(time.Since(t0))/float64(len(rows)))
		var back wire.RowBatch
		t0 = time.Now()
		if err := back.Decode(payload); err != nil {
			return err
		}
		l.add("wire.rowbatch_decode_ns_per_row", float64(time.Since(t0))/float64(len(rows)))
		if len(back.Rows) != len(rows) {
			return fmt.Errorf("RowBatch round trip kept %d of %d rows", len(back.Rows), len(rows))
		}
	}
	l.add("wire.bytes_per_row", float64(len(payload))/float64(len(rows)))
	var buf bytes.Buffer
	for i := 0; i < 200; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := wire.WriteFrame(&buf, wire.TypeRowBatch, payload); err != nil {
			return err
		}
		if _, _, err := wire.ReadFrame(&buf); err != nil {
			return err
		}
		l.add("wire.frame_io_mb_per_s", float64(len(payload))/1e6/time.Since(t0).Seconds())
	}
	return nil
}

func (l *ladder) parserProbes(int) error {
	for _, sl := range []slot{l.e.def.main, l.e.def.second} {
		text := sl.class.text()
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			if _, err := sqlparser.Parse(text); err != nil {
				return err
			}
			l.add("sqlparser.parse_us."+sl.label, us(time.Since(t0)))
		}
	}
	return nil
}

// prepareProbes times Engine.PrepareCtx on a text the plan cache holds
// and on texts of a shape it has never seen (a fresh alias defeats the
// literal normalisation that would otherwise turn them into hits).
func (l *ladder) prepareProbes(int) error {
	eng := l.e.db.Engine
	hit := l.e.def.main.class.text()
	if _, err := eng.PrepareCtx(nil, hit); err != nil {
		return err
	}
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := eng.PrepareCtx(nil, hit); err != nil {
			return err
		}
		l.add("hive.prepare_hit_ns", float64(time.Since(t0)))
		miss := fmt.Sprintf("SELECT %s AS fresh_%d_%d FROM %s", l.e.def.projection[0], l.e.seed, i, l.e.def.primary)
		t0 = time.Now()
		if _, err := eng.PrepareCtx(nil, miss); err != nil {
			return err
		}
		l.add("hive.prepare_miss_us", us(time.Since(t0)))
	}
	return nil
}

// mapredProbes runs two synthetic jobs over 60000 in-memory rows in 4
// splits: a group-by over 1000 keys with a combiner and 4 reducers
// (the shuffle path of an aggregate query) and a map-only filter (the
// collector path of a scan).
func (l *ladder) mapredProbes(int) error {
	const splitCount, keyCard = 4, 1000
	rowsPerSplit := l.e.scale.pick(15000, 1000)
	splits := make([]mapred.InputSplit, splitCount)
	for s := range splits {
		rows := make([]datum.Row, rowsPerSplit)
		for i := range rows {
			rows[i] = datum.Row{datum.Int(int64((s*rowsPerSplit + i) % keyCard)), datum.Float(float64(i))}
		}
		splits[s] = &mapred.SliceSplit{Rows: rows, SimSize: int64(rowsPerSplit * 16)}
	}
	sum := func() mapred.Reducer {
		return mapred.ReduceFunc(func(key []byte, rows []datum.Row, emit mapred.Emitter) error {
			var total float64
			for _, r := range rows {
				total += r[1].F
			}
			return emit(key, datum.Row{rows[0][0], datum.Float(total)})
		})
	}
	shuffle := func() *mapred.Job {
		return &mapred.Job{Name: "bench-groupby", Splits: splits, NumReducers: 4,
			NewMapper: func() mapred.Mapper {
				var key []byte
				return mapred.MapFunc(func(row datum.Row, _ mapred.RecordMeta, emit mapred.Emitter) error {
					key = datum.SortableKey(key[:0], row[0])
					return emit(key, row)
				})
			},
			NewCombiner: sum, NewReducer: sum}
	}
	mapOnly := func() *mapred.Job {
		return &mapred.Job{Name: "bench-scan", Splits: splits,
			NewMapper: func() mapred.Mapper {
				return mapred.MapFunc(func(row datum.Row, _ mapred.RecordMeta, emit mapred.Emitter) error {
					if row[0].I&1 == 0 {
						return emit(nil, datum.Row{row[0], row[1]})
					}
					return nil
				})
			}}
	}
	mr := l.e.db.MR
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		res, err := mr.Run(shuffle())
		if err != nil {
			return err
		}
		l.add("mapred.shuffle_job_ms", ms(time.Since(t0)))
		if res.Counters.ReduceInputGroups != keyCard {
			return fmt.Errorf("group-by job saw %d groups, want %d", res.Counters.ReduceInputGroups, keyCard)
		}
		l.add("mapred.shuffle_bytes", float64(res.Counters.ShuffleBytes))
		t0 = time.Now()
		res, err = mr.Run(mapOnly())
		if err != nil {
			return err
		}
		l.add("mapred.maponly_job_ms", ms(time.Since(t0)))
		if len(res.Rows) != splitCount*rowsPerSplit/2 {
			return fmt.Errorf("map-only job kept %d rows", len(res.Rows))
		}
	}
	return nil
}

// kvProbes times the LSM on a scratch table shaped like the attached
// table: 8-byte record-id keys, one small cell per key, as many keys
// as the attached table held at its peak (at least 2000).
func (l *ladder) kvProbes(int) error {
	const name = "bench_scratch"
	kv := l.e.db.KV
	t, err := kv.CreateTable(name)
	if err != nil {
		return err
	}
	defer kv.DropTable(name)
	keys := int(l.attachedPeak)
	if keys < 2000 {
		keys = 2000
	}
	keys -= keys % 200
	m := sim.NewMeter(nil)
	// 200 batches of 200 cells, going over the key range as often as
	// that takes (later passes write new versions of the same keys).
	const batch, batches = 200, 200
	for b := 0; b < batches; b++ {
		base := b * batch % keys
		cells := make([]*kvstore.Cell, 0, batch)
		for i := base; i < base+batch; i++ {
			cells = append(cells, &kvstore.Cell{Row: core.NewRecordID(1, uint32(i)).Key(), Family: "d",
				Qualifier: []byte{2}, Type: kvstore.TypePut, Value: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}})
		}
		t0 := time.Now()
		if err := t.Put(cells, m); err != nil {
			return err
		}
		l.add("kvstore.put_us_per_cell", us(time.Since(t0))/float64(len(cells)))
	}
	for i := 0; i < 400; i++ {
		key := core.NewRecordID(1, uint32(i*7919%keys)).Key()
		t0 := time.Now()
		cells, err := t.Get(key, m)
		if err != nil {
			return err
		}
		l.add("kvstore.get_us", us(time.Since(t0)))
		if len(cells) == 0 {
			return fmt.Errorf("scratch get of a written key found nothing")
		}
	}
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		sc := t.NewScanner(kvstore.Scan{})
		n := 0
		for {
			if _, ok := sc.Next(); !ok {
				break
			}
			n++
		}
		err := sc.Err()
		sc.Close()
		if err != nil {
			return err
		}
		if n != keys {
			return fmt.Errorf("scratch scan saw %d of %d cells", n, keys)
		}
		l.add("kvstore.scan_ns_per_cell", float64(time.Since(t0))/float64(n))
	}
	return nil
}

// orcWriteProbe writes up to 4096 rows of the primary table into an
// in-memory ORC file.
func (l *ladder) orcWriteProbe(int) error {
	rows, err := l.sampleRows(4096)
	if err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		w, err := orcfile.NewWriter(&buf, l.desc.Schema, orcfile.WriterOptions{})
		if err != nil {
			return err
		}
		for _, r := range rows {
			if err := w.WriteRow(r); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		l.add("orcfile.write_ns_per_row", float64(time.Since(t0))/float64(len(rows)))
	}
	return nil
}

func (l *ladder) dfsWriteProbe(int) error {
	fs := l.e.db.FS
	const dir = "/bench_scratch"
	if err := fs.MkdirAll(dir); err != nil {
		return err
	}
	defer fs.Delete(dir, true)
	data := bytes.Repeat([]byte("dualtable"), 1<<20/9)
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("%s/f%d", dir, i)
		t0 := time.Now()
		if err := fs.WriteFile(p, data); err != nil {
			return err
		}
		l.add("dfs.write_mb_per_s", float64(len(data))/1e6/time.Since(t0).Seconds())
	}
	return nil
}

// countingConn counts bytes the client writes, to prove that a ping is
// a real round trip and not answered by the pool.
type countingConn struct {
	net.Conn
	written *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// driverProbes times the smallest statement that crosses the wire (a
// ping frame and its reply on an idle connection) and a one-client
// stream of the whole primary table, over the wire and in process.
func (l *ladder) driverProbes(parent int) error {
	var written atomic.Int64
	connector := driver.NewConnector(driver.Config{Addr: l.e.addr, Retries: -1,
		Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{c, &written}, nil
		}})
	db := sql.OpenDB(connector)
	defer db.Close()
	ctx := context.Background()
	c, err := db.Conn(ctx)
	if err != nil {
		return err
	}
	defer c.Close()
	const pings = 500
	before := written.Load()
	for i := 0; i < pings; i++ {
		t0 := time.Now()
		if err := c.PingContext(ctx); err != nil {
			return err
		}
		l.add("driver.roundtrip_us", us(time.Since(t0)))
	}
	if sent := written.Load() - before; sent < pings {
		return fmt.Errorf("%d pings wrote %d bytes: not a round trip", pings, sent)
	}

	// Stream the primary table with one client, both ways.
	var cols strings.Builder
	for _, col := range l.desc.Schema {
		switch col.Kind {
		case datum.KindInt:
			cols.WriteByte('i')
		case datum.KindFloat:
			cols.WriteByte('f')
		default:
			cols.WriteByte('s')
		}
	}
	stream := &class{name: "probe_stream", sql: "SELECT * FROM " + l.e.def.primary, query: true, cols: cols.String()}
	wc, err := dialWire(l.e.addr)
	if err != nil {
		return err
	}
	defer wc.close()
	sc := newSessConn(l.e.db)
	defer sc.close()
	for i := 0; i < 7; i++ {
		for _, surf := range []struct {
			c    conn
			wire bool
		}{{wc, true}, {sc, false}} {
			id := l.tr.begin(parent, stmtSpanName(surf.wire), probeClass)
			t0 := time.Now()
			res, err := surf.c.run(&op{class: stream})
			d := time.Since(t0)
			l.tr.end(id)
			if err != nil {
				return err
			}
			if res.rows == 0 {
				return fmt.Errorf("stream probe of %s returned no rows", l.e.def.primary)
			}
			if surf.wire {
				l.add("driver.stream_rows_per_s_1c", float64(res.rows)/d.Seconds())
				l.add("stream.first_row.wire", ms(res.firstRow))
			} else {
				l.add("stream.first_row.inproc", ms(res.firstRow))
				l.probeSim += res.sim
			}
		}
	}
	return nil
}
