package mapred

import (
	"bytes"
	"encoding/binary"
	"slices"

	"dualtable/internal/datum"
)

// shuffleRun is one map task's output for one reduce partition, stored
// as flat column segments instead of per-pair records:
//
//   - keyBytes/keyOff: every emitted key concatenated back-to-back,
//     with a prefix offset vector (keyOff[i]..keyOff[i+1] is key i).
//   - vals/valOff: every emitted row's datums concatenated into one
//     flat segment with its own offset vector. A row is reconstructed
//     as a zero-copy capacity-clamped sub-slice of the segment, so
//     variable-width rows (joins mix tagged widths in one partition)
//     cost nothing extra.
//   - perm: the sort order as a selection vector. Sorting permutes
//     4-byte indexes instead of moving 50+ byte records, and a nil
//     perm means the run was already emitted in key order (the common
//     case after a combiner).
//
// Compared to the previous []kvPair layout this removes the per-pair
// slice headers (three pointers per record for the GC to scan), makes
// the sort swap pointer-free, and lets emit copy the row into the
// segment so mappers can reuse their row buffers (see the package
// ownership contract).
//
// Offsets are int32, bounding a single run at 2^31 datums / key bytes
// — the same ceiling the old int32 emission ordinal imposed.
type shuffleRun struct {
	keyBytes []byte
	keyOff   []int32
	vals     []datum.Datum
	valOff   []int32
	perm     []int32
	bytes    int64 // encoded wire size of the run
	// hint is the number of records the producer expects to append
	// (0: unknown). The first append sizes the segments from it and
	// from the first record's width.
	hint int
}

// len returns the number of records in the run.
func (r *shuffleRun) len() int {
	if len(r.keyOff) == 0 {
		return 0
	}
	return len(r.keyOff) - 1
}

// key returns record i's key (physical index, pre-permutation).
func (r *shuffleRun) key(i int32) []byte {
	return r.keyBytes[r.keyOff[i]:r.keyOff[i+1]]
}

// row returns record i's row as a zero-copy view into the datum
// segment (physical index). The capacity clamp keeps an append by the
// consumer from clobbering the next record.
func (r *shuffleRun) row(i int32) datum.Row {
	return datum.Row(r.vals[r.valOff[i]:r.valOff[i+1]:r.valOff[i+1]])
}

// idx maps a logical (sorted) position to the physical record index.
func (r *shuffleRun) idx(i int) int32 {
	if r.perm == nil {
		return int32(i)
	}
	return r.perm[i]
}

// append copies one emitted record into the segments. The key and the
// row are both copied; callers may reuse their buffers.
func (r *shuffleRun) append(key []byte, row datum.Row) {
	if len(r.keyOff) == 0 {
		if cap(r.keyOff) == 0 {
			// Presize for the records the producer expects, or, when
			// it cannot tell, for a few hundred records so early
			// doubling doesn't churn the allocator on every partition.
			hint, keyCap, valCap := 512, 8<<10, 2*512
			if r.hint > 0 {
				hint, keyCap, valCap = r.hint, r.hint*len(key), r.hint*len(row)
			}
			r.keyOff = make([]int32, 0, hint+1)
			r.valOff = make([]int32, 0, hint+1)
			r.keyBytes = make([]byte, 0, keyCap)
			r.vals = make([]datum.Datum, 0, valCap)
		}
		r.keyOff = append(r.keyOff, 0)
		r.valOff = append(r.valOff, 0)
	}
	r.keyBytes = append(r.keyBytes, key...)
	r.keyOff = append(r.keyOff, int32(len(r.keyBytes)))
	r.vals = append(r.vals, row...)
	r.valOff = append(r.valOff, int32(len(r.vals)))
}

// appendSized appends and accumulates the record's encoded wire size.
func (r *shuffleRun) appendSized(key []byte, row datum.Row) {
	r.append(key, row)
	r.bytes += int64(len(key) + datum.RowEncodedSize(row))
}

// seal orders the run by (key, emission order). If the records were
// emitted in key order already — combiner output, pre-sorted inputs —
// the check costs one pass and no permutation is built. Otherwise the
// sort builds a selection vector: index ties break toward the earlier
// emission, so an unstable sort over (key, index) is equivalent to a
// stable sort by key.
func (r *shuffleRun) seal() {
	n := r.len()
	sorted := true
	for i := 1; i < n; i++ {
		if bytes.Compare(r.key(int32(i-1)), r.key(int32(i))) > 0 {
			sorted = false
			break
		}
	}
	if sorted {
		r.perm = nil
		return
	}
	// Most comparisons resolve on an 8-byte big-endian prefix of the
	// key (shuffle keys are short sortable encodings), so precompute
	// the prefixes once and fall back to a byte compare only when two
	// long keys share a prefix. For keys of at most 8 bytes an equal
	// prefix reduces the byte order to a length compare: the shorter
	// key is a strict prefix of the longer one (the longer key's extra
	// bytes must be 0x00 for the padded prefixes to match).
	pref := make([]uint64, n)
	for i := 0; i < n; i++ {
		pref[i] = keyPrefix(r.key(int32(i)))
	}
	perm := r.perm[:0]
	if cap(perm) < n {
		perm = make([]int32, 0, n)
	}
	for i := 0; i < n; i++ {
		perm = append(perm, int32(i))
	}
	slices.SortFunc(perm, func(a, b int32) int {
		pa, pb := pref[a], pref[b]
		if pa != pb {
			if pa < pb {
				return -1
			}
			return 1
		}
		la := r.keyOff[a+1] - r.keyOff[a]
		lb := r.keyOff[b+1] - r.keyOff[b]
		if la <= 8 && lb <= 8 {
			if la != lb {
				return int(la - lb)
			}
			return int(a - b)
		}
		if c := bytes.Compare(r.key(a), r.key(b)); c != 0 {
			return c
		}
		return int(a - b)
	})
	r.perm = perm
}

// keyPrefix packs the first 8 bytes of k big-endian (zero-padded), so
// integer order on prefixes matches byte order on the raw keys.
func keyPrefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var buf [8]byte
	copy(buf[:], k)
	return binary.BigEndian.Uint64(buf[:])
}

// shuffleWriter is one map task's private shuffle state: a columnar
// run per reduce partition. No locks anywhere — the task is the only
// writer, and the reduce phase reads the runs only after the map
// phase's WaitGroup barrier.
//
// Byte sizes are accumulated at emit time when no combiner runs; with
// a combiner, sizing happens as the (much smaller) combined output is
// appended, matching what actually shuffles — there is no separate
// recount pass.
type shuffleWriter struct {
	runs       []shuffleRun
	sizeOnEmit bool
}

func newShuffleWriter(numParts int, sizeOnEmit bool) *shuffleWriter {
	return &shuffleWriter{
		runs:       make([]shuffleRun, numParts),
		sizeOnEmit: sizeOnEmit,
	}
}

// add copies one emitted pair into its hash partition's segments.
func (w *shuffleWriter) add(key []byte, row datum.Row) {
	p := int(hashBytes(key) % uint64(len(w.runs)))
	r := &w.runs[p]
	r.append(key, row)
	if w.sizeOnEmit {
		r.bytes += int64(len(key) + datum.RowEncodedSize(row))
	}
}

// expect tells the runs not yet written that n more records are
// coming, spread over the partitions by key hash: each such run sizes
// its first allocation for its even share.
func (w *shuffleWriter) expect(n int) {
	share := (n + len(w.runs) - 1) / len(w.runs)
	for p := range w.runs {
		if cap(w.runs[p].keyOff) == 0 {
			w.runs[p].hint = share
		}
	}
}

// sealAll orders every partition into a sorted run.
func (w *shuffleWriter) sealAll() {
	for p := range w.runs {
		w.runs[p].seal()
	}
}

func hashBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
