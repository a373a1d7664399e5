package orcfile

import (
	"bytes"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Master files are write-once and a UNION READ re-reads the ones that
// have not changed since they were written, so most stripe streams a
// scan loads were loaded, byte for byte, by an earlier scan. Every scan
// still reads its compressed ranges from the file — the read is what the
// DFS charges, counts, checksums and injects faults into — but a range
// whose content an earlier scan already inflated is not inflated again:
// the process keeps the inflated bytes of recent streams, keyed by the
// compressed bytes themselves. A key that is its own content cannot go
// stale, so nothing invalidates an entry; entries leave only by LRU
// eviction. Footers and uncompressed files are read as before.

// streamCacheBytes bounds the stream cache: the compressed plus inflated
// bytes of every entry it holds. A stream costing more than an eighth of
// it is not cached.
const streamCacheBytes = 32 << 20

// cache is the process-wide stream cache, shared by every scan the way
// the free lists are.
var cache = newStreamCache(streamCacheBytes)

type streamKey struct {
	hash uint64
	n    int
}

// streamEntry is one inflated stream. Everything in it is read-only once
// the entry is in the cache: scans decode from inflated in place, so it
// must never become a scratch buffer some later load writes into.
type streamEntry struct {
	key        streamKey
	compressed []byte // the stream as stored: what a hit is confirmed against
	inflated   []byte
	// dict is the stream's parsed string dictionary, stored by the first
	// cursor that parses it (nil until then, and for other streams).
	dict atomic.Pointer[stringDict]

	prev, next *streamEntry // recency list, most recent first
}

// stringDict is a parsed dictionary and the offset in the stream's
// string data just past it, where the dictionary indexes begin.
type stringDict struct {
	vals []string
	end  int
}

type streamCache struct {
	hashSeed maphash.Seed
	budget   int

	mu    sync.Mutex
	byKey map[streamKey]*streamEntry
	lru   streamEntry // sentinel: lru.next is the most recently used entry
	bytes int         // compressed plus inflated bytes of the entries held
}

func newStreamCache(budget int) *streamCache {
	c := &streamCache{hashSeed: maphash.MakeSeed(), budget: budget, byKey: map[streamKey]*streamEntry{}}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// lookup returns the entry holding compressed's inflated bytes, or nil,
// and compressed's key for an add after a miss. A hit is confirmed
// against the entry's own copy of the compressed bytes, so it returns
// exactly what inflating them would.
func (c *streamCache) lookup(compressed []byte) (streamKey, *streamEntry) {
	key := c.key(compressed)
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byKey[key]
	if e == nil || !bytes.Equal(e.compressed, compressed) {
		return key, nil
	}
	c.unlink(e)
	c.pushFront(e)
	return key, e
}

func (c *streamCache) key(compressed []byte) streamKey {
	return streamKey{maphash.Bytes(c.hashSeed, compressed), len(compressed)}
}

// seed caches a stream a writer has just compressed from inflated, so
// the first scan of a fresh file finds what inflating it would return.
// Its file is read, charged and verified as before: only the inflate is
// spared.
func (c *streamCache) seed(compressed, inflated []byte) {
	c.add(c.key(compressed), compressed, inflated)
}

// add caches an exact-size copy of a stream lookup missed, evicting the
// least recently used entries beyond the budget, and returns the entry —
// an equal one a concurrent scan added first, or nil when the stream is
// too large to cache.
func (c *streamCache) add(key streamKey, compressed, inflated []byte) *streamEntry {
	cost := len(compressed) + len(inflated)
	if cost > c.budget/8 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.byKey[key]; old != nil {
		if bytes.Equal(old.compressed, compressed) {
			return old
		}
		c.evict(old) // a hash collision: the newer stream takes the key
	}
	b := make([]byte, cost)
	n := copy(b, compressed)
	copy(b[n:], inflated)
	e := &streamEntry{key: key, compressed: b[:n:n], inflated: b[n:]}
	c.byKey[key] = e
	c.pushFront(e)
	c.bytes += cost
	for c.bytes > c.budget {
		c.evict(c.lru.prev)
	}
	return e
}

func (c *streamCache) evict(e *streamEntry) {
	c.unlink(e)
	delete(c.byKey, e.key)
	c.bytes -= len(e.compressed) + len(e.inflated)
	e.prev, e.next = nil, nil // a scan still decoding e must not pin its neighbours
}

func (c *streamCache) unlink(e *streamEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *streamCache) pushFront(e *streamEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	c.lru.next.prev = e
	c.lru.next = e
}
