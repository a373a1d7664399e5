// Package orcfile implements a simplified ORC-like columnar file
// format: rows are buffered into stripes; within a stripe every column
// is stored as an independently compressed stream with a presence
// bitmap, a type-specific encoding (run-length for integers,
// dictionary or direct for strings, bit-packing for booleans), and
// per-stripe min/max/sum statistics that support predicate pushdown.
// The file footer records the schema, the stripe directory, file-level
// statistics, and user metadata — DualTable stores its master-table
// file ID there (paper §V-B), and the reader reports the row number of
// every batch it returns, which is how DualTable derives record IDs at
// zero storage cost.
//
// BatchReader is the one decoder: it decodes chunks of up to
// DefaultBatchRows rows into typed column vectors (datum.ColumnVector),
// expanding whole RLE groups per iteration instead of dispatching per
// value. A batch never spans a stripe boundary, so its rows carry
// consecutive file ordinals.
package orcfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// intEncoder run-length encodes int64 values: repeats of length >= 3
// become a run, everything else is emitted as literal groups.
//
//	run:     0x00 uvarint(count-3) zigzag-varint(value)
//	literal: 0x01 uvarint(count)   count zigzag-varints
//	delta:   0x02 uvarint(count-3) zigzag(first) zigzag(delta)
//
// The delta form captures monotonic sequences (record IDs, dates)
// that dominate DualTable workloads.
type intEncoder struct {
	pending []int64
	out     []byte
}

const (
	rleRun     = 0x00
	rleLiteral = 0x01
	rleDelta   = 0x02
	minRunLen  = 3
)

// maxEncodeRun caps a single encoded run. A run that reaches the cap
// is emitted even when it might continue, which guarantees
// flushPending always makes progress (keeping Append amortized O(1)).
const maxEncodeRun = 1024

func (e *intEncoder) Append(v int64) {
	e.pending = append(e.pending, v)
	if len(e.pending) >= 2*maxEncodeRun {
		e.flushPending(false)
	}
}

// AppendAll appends vs as an Append per value would: the buffer is
// flushed at the same points, so the RLE groups are the same.
func (e *intEncoder) AppendAll(vs []int64) {
	for len(vs) > 0 {
		n := min(len(vs), 2*maxEncodeRun-len(e.pending))
		e.pending = append(e.pending, vs[:n]...)
		vs = vs[n:]
		if len(e.pending) >= 2*maxEncodeRun {
			e.flushPending(false)
		}
	}
}

// flushPending encodes the buffered values. When force is false a
// small tail is kept buffered to allow runs to continue.
func (e *intEncoder) flushPending(force bool) {
	vals := e.pending
	i := 0
	for i < len(vals) {
		// Try a constant run.
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		if runLen := j - i; runLen >= minRunLen {
			if j == len(vals) && !force && runLen < maxEncodeRun {
				break // run may continue with future appends
			}
			if runLen > maxEncodeRun {
				runLen = maxEncodeRun
				j = i + runLen
			}
			e.out = append(e.out, rleRun)
			e.out = binary.AppendUvarint(e.out, uint64(runLen-minRunLen))
			e.out = appendZigzag(e.out, vals[i])
			i = j
			continue
		}
		// Try a delta run.
		j = i + 1
		if j < len(vals) {
			delta := vals[j] - vals[i]
			if delta != 0 {
				for j+1 < len(vals) && vals[j+1]-vals[j] == delta {
					j++
				}
				if runLen := j - i + 1; runLen >= minRunLen {
					if j == len(vals)-1 && !force && runLen < maxEncodeRun {
						break
					}
					if runLen > maxEncodeRun {
						runLen = maxEncodeRun
						j = i + runLen - 1
					}
					e.out = append(e.out, rleDelta)
					e.out = binary.AppendUvarint(e.out, uint64(runLen-minRunLen))
					e.out = appendZigzag(e.out, vals[i])
					e.out = appendZigzag(e.out, delta)
					i = j + 1
					continue
				}
			}
		}
		// Literal group: scan forward until a run starts.
		start := i
		i++
		for i < len(vals) {
			if i+minRunLen <= len(vals) {
				if vals[i] == vals[i+1] && vals[i] == vals[i+2] {
					break
				}
				d := vals[i+1] - vals[i]
				if d != 0 && i+2 < len(vals) && vals[i+2]-vals[i+1] == d {
					break
				}
			}
			i++
		}
		if i == len(vals) && !force && len(vals)-start < 512 {
			i = start
			break
		}
		e.out = append(e.out, rleLiteral)
		e.out = binary.AppendUvarint(e.out, uint64(i-start))
		for _, v := range vals[start:i] {
			e.out = appendZigzag(e.out, v)
		}
	}
	e.pending = append(e.pending[:0], vals[i:]...)
}

// Finish returns the complete encoding.
func (e *intEncoder) Finish() []byte {
	e.flushPending(true)
	return e.out
}

// Reset prepares the encoder for reuse.
func (e *intEncoder) Reset() {
	e.pending = e.pending[:0]
	e.out = e.out[:0]
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

func decodeZigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// intDecoder streams values back out of an RLE buffer.
type intDecoder struct {
	buf []byte
	off int

	mode  byte
	left  uint64
	cur   int64
	delta int64
}

// loadGroup decodes the next RLE group header, leaving d.left > 0.
func (d *intDecoder) loadGroup() error {
	for d.left == 0 {
		if d.off >= len(d.buf) {
			return fmt.Errorf("orcfile: int stream exhausted")
		}
		mode := d.buf[d.off]
		d.off++
		n, c := binary.Uvarint(d.buf[d.off:])
		if c <= 0 {
			return fmt.Errorf("orcfile: bad RLE count")
		}
		d.off += c
		switch mode {
		case rleRun:
			v, c2 := binary.Uvarint(d.buf[d.off:])
			if c2 <= 0 {
				return fmt.Errorf("orcfile: bad RLE run value")
			}
			d.off += c2
			d.mode, d.left, d.cur = rleRun, n+minRunLen, decodeZigzag(v)
		case rleLiteral:
			if n == 0 {
				continue
			}
			d.mode, d.left = rleLiteral, n
		case rleDelta:
			first, c2 := binary.Uvarint(d.buf[d.off:])
			if c2 <= 0 {
				return fmt.Errorf("orcfile: bad delta first")
			}
			d.off += c2
			delta, c3 := binary.Uvarint(d.buf[d.off:])
			if c3 <= 0 {
				return fmt.Errorf("orcfile: bad delta step")
			}
			d.off += c3
			d.mode, d.left = rleDelta, n+minRunLen
			d.cur, d.delta = decodeZigzag(first), decodeZigzag(delta)
			// First value of a delta run is emitted as-is; mark so.
			d.cur -= d.delta
		}
	}
	return nil
}

// Fill decodes len(dst) values, expanding whole RLE groups per
// iteration — the batch read path's inner loop. A call may end inside a
// group; the next one continues it.
func (d *intDecoder) Fill(dst []int64) error {
	for len(dst) > 0 {
		if d.left == 0 {
			if err := d.loadGroup(); err != nil {
				return err
			}
		}
		n := len(dst)
		if uint64(n) > d.left {
			n = int(d.left)
		}
		switch d.mode {
		case rleRun:
			v := d.cur
			for i := 0; i < n; i++ {
				dst[i] = v
			}
		case rleDelta:
			v, step := d.cur, d.delta
			for i := 0; i < n; i++ {
				v += step
				dst[i] = v
			}
			d.cur = v
		default: // literal
			for i := 0; i < n; i++ {
				v, c := binary.Uvarint(d.buf[d.off:])
				if c <= 0 {
					return fmt.Errorf("orcfile: bad literal value")
				}
				d.off += c
				dst[i] = decodeZigzag(v)
			}
		}
		d.left -= uint64(n)
		dst = dst[n:]
	}
	return nil
}

// FillDict decodes len(dst) dictionary indexes and stores the entries of
// dict they name. A run of one index is checked once and its entry
// stored over the whole stretch; other groups are checked index by index.
func (d *intDecoder) FillDict(dst, dict []string) error {
	var idxs [64]int64
	for len(dst) > 0 {
		if d.left == 0 {
			if err := d.loadGroup(); err != nil {
				return err
			}
		}
		n := len(dst)
		if uint64(n) > d.left {
			n = int(d.left)
		}
		if d.mode == rleRun {
			if d.cur < 0 || d.cur >= int64(len(dict)) {
				return fmt.Errorf("orcfile: dict index %d out of range", d.cur)
			}
			s := dict[d.cur]
			for i := range dst[:n] {
				dst[i] = s
			}
			d.left -= uint64(n)
			dst = dst[n:]
			continue
		}
		n = min(n, len(idxs))
		if err := d.Fill(idxs[:n]); err != nil {
			return err
		}
		for i, idx := range idxs[:n] {
			if idx < 0 || idx >= int64(len(dict)) {
				return fmt.Errorf("orcfile: dict index %d out of range", idx)
			}
			dst[i] = dict[idx]
		}
		dst = dst[n:]
	}
	return nil
}

// bitWriter packs booleans into bytes, LSB first.
type bitWriter struct {
	out  []byte
	cur  byte
	nbit uint8
}

func (w *bitWriter) Append(b bool) {
	if b {
		w.cur |= 1 << w.nbit
	}
	w.nbit++
	if w.nbit == 8 {
		w.out = append(w.out, w.cur)
		w.cur, w.nbit = 0, 0
	}
}

// AppendNot appends one bit per value, set where the value is false —
// a presence bitmap from a vector's NULL flags — and returns how many
// were true.
func (w *bitWriter) AppendNot(bs []bool) int {
	set := 0
	cur, nbit := w.cur, w.nbit
	for _, b := range bs {
		if b {
			set++
		} else {
			cur |= 1 << nbit
		}
		if nbit++; nbit == 8 {
			w.out = append(w.out, cur)
			cur, nbit = 0, 0
		}
	}
	w.cur, w.nbit = cur, nbit
	return set
}

func (w *bitWriter) Finish() []byte {
	if w.nbit > 0 {
		w.out = append(w.out, w.cur)
		w.cur, w.nbit = 0, 0
	}
	return w.out
}

func (w *bitWriter) Reset() {
	w.out = w.out[:0]
	w.cur, w.nbit = 0, 0
}

// bitReader unpacks booleans.
type bitReader struct {
	buf []byte
	idx int
}

// bitsOf[b] and notBitsOf[b] are byte b's eight bits, LSB first, as
// flags and as their negations: one table store unpacks a whole byte.
var bitsOf, notBitsOf [256][8]bool

func init() {
	for b := range 256 {
		for j := range 8 {
			bitsOf[b][j] = b>>j&1 != 0
			notBitsOf[b][j] = b>>j&1 == 0
		}
	}
}

// Fill unpacks len(dst) booleans in one pass.
func (r *bitReader) Fill(dst []bool) error {
	_, err := r.unpack(dst, false)
	return err
}

// FillNot unpacks len(dst) bits negated — a presence bitmap straight
// into a vector's NULL flags, dst[i] set where bit i is clear — and
// returns how many bits were set.
func (r *bitReader) FillNot(dst []bool) (set int, err error) {
	return r.unpack(dst, true)
}

// unpack stores len(dst) bits, each negated when not is true, and counts
// the set ones. The head up to a byte boundary and the tail go bit by
// bit, whole bytes through a table. A 64-bit word whose flags all come
// out false (all set under not, all clear otherwise: a stretch with no
// NULLs, or of false values) is cleared in bulk.
func (r *bitReader) unpack(dst []bool, not bool) (set int, err error) {
	if (r.idx+len(dst)+7)/8 > len(r.buf) {
		return 0, fmt.Errorf("orcfile: bit stream exhausted")
	}
	tbl, clearWord := &bitsOf, uint64(0)
	if not {
		tbl, clearWord = &notBitsOf, ^uint64(0)
	}
	idx, i := r.idx, 0
	for ; i < len(dst) && idx&7 != 0; i, idx = i+1, idx+1 {
		bit := r.buf[idx>>3]>>(idx&7)&1 != 0
		dst[i] = bit != not
		if bit {
			set++
		}
	}
	buf := r.buf[idx>>3:]
	k := 0
	for ; len(dst)-i >= 64; i, k = i+64, k+8 {
		w := binary.LittleEndian.Uint64(buf[k:])
		set += bits.OnesCount64(w)
		word := (*[64]bool)(dst[i : i+64])
		if w == clearWord {
			clear(word[:])
			continue
		}
		for j := 0; j < 64; j += 8 {
			*(*[8]bool)(word[j : j+8]) = tbl[byte(w>>j)]
		}
	}
	for ; len(dst)-i >= 8; i, k = i+8, k+1 {
		*(*[8]bool)(dst[i : i+8]) = tbl[buf[k]]
		set += bits.OnesCount8(buf[k])
	}
	for idx += 8 * k; i < len(dst); i, idx = i+1, idx+1 {
		bit := r.buf[idx>>3]>>(idx&7)&1 != 0
		dst[i] = bit != not
		if bit {
			set++
		}
	}
	r.idx = idx
	return set, nil
}

// floatEncoder stores raw IEEE bits little-endian.
type floatEncoder struct{ out []byte }

func (e *floatEncoder) Append(v float64) {
	e.out = binary.LittleEndian.AppendUint64(e.out, math.Float64bits(v))
}

// AppendAll appends vs in one grow.
func (e *floatEncoder) AppendAll(vs []float64) {
	n := len(e.out)
	e.out = slices.Grow(e.out, 8*len(vs))[:n+8*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(e.out[n+8*i:], math.Float64bits(v))
	}
}

func (e *floatEncoder) Finish() []byte { return e.out }
func (e *floatEncoder) Reset()         { e.out = e.out[:0] }

type floatDecoder struct {
	buf []byte
	off int
}

// Fill decodes len(dst) floats in one bounds-checked pass.
func (d *floatDecoder) Fill(dst []float64) error {
	if d.off+8*len(dst) > len(d.buf) {
		return fmt.Errorf("orcfile: float stream exhausted")
	}
	buf := d.buf[d.off:]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	d.off += 8 * len(dst)
	return nil
}

// appendBytesVal appends a length-prefixed byte string.
func appendBytesVal(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readBytesVal(buf []byte, off int) (string, int, error) {
	l, c := binary.Uvarint(buf[off:])
	if c <= 0 {
		return "", 0, fmt.Errorf("orcfile: bad string length")
	}
	off += c
	end := off + int(l)
	if end > len(buf) || end < off {
		return "", 0, fmt.Errorf("orcfile: truncated string")
	}
	return string(buf[off:end]), end, nil
}
