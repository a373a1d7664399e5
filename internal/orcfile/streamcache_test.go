package orcfile

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/dfs"
	"dualtable/internal/sim"
)

// reset empties the cache, so the next load of every stream misses.
func (c *streamCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.byKey)
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	c.bytes = 0
}

// entries returns how many streams c holds.
func (c *streamCache) entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

// cachedDict reports whether an entry of c holds a parsed dictionary.
func cachedDict(c *streamCache) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.byKey {
		if e.dict.Load() != nil {
			return true
		}
	}
	return false
}

// useCache makes c the process cache for the rest of the test.
func useCache(t *testing.T, c *streamCache) {
	old := cache
	cache = c
	t.Cleanup(func() { cache = old })
}

// cacheCorpus is every kind of compressed file the tests write: each
// column kind, NULLs, dictionary and direct strings, one stripe and
// many, and stripes whose streams repeat byte for byte.
func cacheCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	strs := datum.Schema{{Name: "s", Kind: datum.KindString}, {Name: "n", Kind: datum.KindInt}}
	strRows := func(card int) []datum.Row {
		rng := rand.New(rand.NewSource(int64(card)))
		rows := make([]datum.Row, 3000)
		for i := range rows {
			rows[i] = datum.Row{datum.String_(fmt.Sprintf("value-%d", rng.Intn(card))), datum.Int(int64(i % 7))}
			if i%11 == 0 {
				rows[i][0] = datum.Null
			}
		}
		return rows
	}
	nulls := make([]datum.Row, 40)
	for i := range nulls {
		nulls[i] = datum.Row{datum.Null, datum.Null}
	}
	repeat := make([]datum.Row, 64)
	for i := range repeat {
		repeat[i] = datum.Row{datum.String_("same"), datum.Int(int64(i % 8))}
	}
	files := map[string]struct {
		schema datum.Schema
		rows   []datum.Row
		opts   WriterOptions
	}{
		"mixed, one stripe":        {testSchema(), makeRows(700, 1), WriterOptions{}},
		"mixed, 64-row stripes":    {testSchema(), makeRows(700, 2), WriterOptions{StripeRows: 64}},
		"small serving file":       {smallSchema(), smallRows(3), WriterOptions{}},
		"dictionary strings":       {strs, strRows(5), WriterOptions{StripeRows: 1000}},
		"direct strings":           {strs, strRows(1 << 20), WriterOptions{StripeRows: 1000}},
		"all NULL":                 {strs, nulls, WriterOptions{StripeRows: 10}},
		"stripes repeating stream": {strs, repeat, WriterOptions{StripeRows: 8}},
	}
	out := map[string][]byte{}
	for name, f := range files {
		f.opts.Compression = true
		data, err := encodeFile(f.schema, f.rows, f.opts)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// TestStreamCacheIsInvisible: every corpus file decodes to the same rows,
// in full and in one-row batches, cold, warm, and through a cache so
// small that nearly every load evicts; the warm pass inflates nothing.
func TestStreamCacheIsInvisible(t *testing.T) {
	corpus := cacheCorpus(t)
	drains := map[string]func([]byte, int) ([]datum.Row, error){"batch": drainBatch, "one-row batch": drainOneRowBatches}
	for name, data := range corpus {
		for how, drain := range drains {
			useCache(t, newStreamCache(streamCacheBytes))
			cold, err := drain(data, 1<<20)
			if err != nil {
				t.Fatalf("%s, %s, cold: %v", name, how, err)
			}
			held := cache.entries()
			if held == 0 {
				t.Fatalf("%s, %s: the cold scan cached nothing", name, how)
			}
			warm, err := drain(data, 1<<20)
			if err != nil {
				t.Fatalf("%s, %s, warm: %v", name, how, err)
			}
			if !reflect.DeepEqual(warm, cold) {
				t.Fatalf("%s, %s: warm rows differ from cold", name, how)
			}
			if cache.entries() != held {
				t.Fatalf("%s, %s: the warm scan added %d entries", name, how, cache.entries()-held)
			}
			if name == "dictionary strings" && !cachedDict(cache) {
				t.Fatalf("%s, %s: no entry kept its parsed dictionary", name, how)
			}
			useCache(t, newStreamCache(2<<10))
			for pass := 0; pass < 2; pass++ {
				squeezed, err := drain(data, 1<<20)
				if err != nil {
					t.Fatalf("%s, %s, under eviction: %v", name, how, err)
				}
				if !reflect.DeepEqual(squeezed, cold) {
					t.Fatalf("%s, %s: rows under eviction differ from cold", name, how)
				}
			}
		}
	}
}

// TestStreamCacheMissesCorruptTwin: a stream corrupted after its clean
// twin was cached differs in its stored bytes, so it misses and fails
// to inflate exactly as without the cache — whether the corruption is
// in the bytes handed to Open or in a DFS block read without
// verification.
func TestStreamCacheMissesCorruptTwin(t *testing.T) {
	want := smallRows(7)
	good, err := encodeFile(smallSchema(), want, WriterOptions{Compression: true})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 0xFF // first deflate block of the first stream: reserved block type
	for _, drain := range []func([]byte, int) ([]datum.Row, error){drainBatch, drainOneRowBatches} {
		cache.reset()
		if rows, err := drain(good, 1<<20); err != nil || !reflect.DeepEqual(rows, want) {
			t.Fatalf("clean file: %d rows, %v", len(rows), err)
		}
		if _, err := drain(bad, 1<<20); err == nil {
			t.Fatal("corrupt twin of a cached file read without error")
		}
	}

	fs := dfs.New(dfs.Config{BlockSize: 1 << 20})
	writeDFS(t, fs, "/f", good)
	cache.reset()
	if _, err := drainDFS(t, fs, "/f", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.CorruptBlock("/f", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := drainDFS(t, fs, "/f", nil); err == nil {
		t.Fatal("corrupted DFS block read without error")
	}
}

func writeDFS(t *testing.T, fs *dfs.FileSystem, p string, data []byte) {
	t.Helper()
	w, err := fs.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// drainDFS scans the file at p through a reader charging m, as a task
// does, and returns how many rows it read.
func drainDFS(t *testing.T, fs *dfs.FileSystem, p string, m *sim.Meter) (int, error) {
	t.Helper()
	fr, err := fs.OpenMeter(p, m)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	rd, err := Open(fr, fr.Size())
	if err != nil {
		return 0, err
	}
	br := rd.NewBatchReader(RowReaderOptions{})
	defer br.Close()
	n := 0
	for {
		k, _, err := br.NextBatch(br.Vectors(), 0)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n += k
	}
}

// TestStreamCacheChargesLikeAMiss: a scan that hits on every stream
// charges the same simulated seconds and reads the same DFS bytes as the
// scan that missed on all of them.
func TestStreamCacheChargesLikeAMiss(t *testing.T) {
	data, err := encodeFile(testSchema(), makeRows(2000, 4), WriterOptions{Compression: true, StripeRows: 300})
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.New(dfs.Config{BlockSize: 4 << 10})
	writeDFS(t, fs, "/f", data)
	params := sim.GridCluster()
	scan := func() (float64, int64) {
		m := sim.NewMeter(&params)
		before := fs.Metrics().BytesRead
		n, err := drainDFS(t, fs, "/f", m)
		if err != nil || n != 2000 {
			t.Fatalf("scan read %d rows, %v", n, err)
		}
		return m.Seconds(), fs.Metrics().BytesRead - before
	}
	cache.reset()
	missSec, missBytes := scan()
	held := cache.entries()
	hitSec, hitBytes := scan()
	if held == 0 || cache.entries() != held {
		t.Fatalf("the miss cached %d streams, the hit left %d", held, cache.entries())
	}
	if hitSec != missSec || hitBytes != missBytes {
		t.Fatalf("hit charged %v s and %d B, miss %v s and %d B", hitSec, hitBytes, missSec, missBytes)
	}
	if missBytes < int64(len(data)) {
		t.Fatalf("a scan read %d B of a %d B file", missBytes, len(data))
	}
}

// TestStreamCacheConcurrentScans: goroutines scanning one file at once —
// sharing cached entries, racing to add the same stream, and, through a
// small cache, evicting each other's — all read the serial rows. Run
// under -race.
func TestStreamCacheConcurrentScans(t *testing.T) {
	want := makeRows(1500, 5)
	data, err := encodeFile(testSchema(), want, WriterOptions{Compression: true, StripeRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := drainBatch(data, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{streamCacheBytes, 8 << 10} {
		useCache(t, newStreamCache(budget))
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					drain := drainBatch
					if (g+i)%2 == 1 {
						drain = drainOneRowBatches
					}
					rows, err := drain(data, 1<<20)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(rows, serial) {
						t.Errorf("budget %d, goroutine %d: rows differ from the serial scan", budget, g)
						return
					}
				}
			}()
		}
		wg.Wait()
		if cache.bytes > budget {
			t.Fatalf("budget %d: cache holds %d B", budget, cache.bytes)
		}
	}
}

// TestStreamCacheBudget: the bytes held never exceed the budget and
// always equal the entries' sizes, an entry larger than an eighth of the
// budget is not kept, and an entry looked up between cold adds outlives
// a flood of them.
func TestStreamCacheBudget(t *testing.T) {
	const budget = 64 << 10
	c := newStreamCache(budget)
	stream := func(i, n int) []byte {
		b := make([]byte, n)
		rand.New(rand.NewSource(int64(i))).Read(b)
		return b
	}
	add := func(b []byte) *streamEntry {
		key, e := c.lookup(b)
		if e != nil {
			return e
		}
		return c.add(key, b, bytes.Repeat(b, 2))
	}
	hot := stream(-1, 300)
	if add(hot) == nil {
		t.Fatal("a small stream was not cached")
	}
	if e := add(stream(-2, budget/8)); e != nil {
		t.Fatal("a stream costing more than an eighth of the budget was cached")
	}
	for i := 0; i < 2000; i++ {
		add(stream(i, 100+i%700))
		if _, e := c.lookup(hot); e == nil {
			t.Fatalf("the hot entry was evicted by cold add %d", i)
		}
		held := 0
		for _, e := range c.byKey {
			held += len(e.compressed) + len(e.inflated)
		}
		if c.bytes != held || c.bytes > budget {
			t.Fatalf("after add %d: %d B counted, %d B held, budget %d", i, c.bytes, held, budget)
		}
	}
	if n := c.entries(); n >= 2000 {
		t.Fatalf("%d entries held: nothing was evicted", n)
	}
}
