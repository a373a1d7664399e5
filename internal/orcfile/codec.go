package orcfile

import (
	"bytes"
	"compress/flate"
	"io"
	"slices"

	"dualtable/internal/datum"
	"dualtable/internal/freelist"
)

// The state of a flate codec dwarfs the streams this format stores in
// small files: an inflater carries ~44 KB of Huffman tables and window,
// a deflater ~650 KB of hash chains, while a 512-row column stream is a
// few KB. Readers and writers therefore never construct codec state per
// stream (or per file): they borrow it, with the byte buffers around it,
// a batch scan's decode scratch and a writer's column builders, from the
// free lists below and hand it back when done. Everything on a list is
// reset by its next borrower — or, for column builders, by the writer
// that returns them — so a value that saw a corrupt stream is as good as
// new.

var (
	inflaters       = freelist.New[inflater]()
	deflaters       = freelist.New[deflater]()
	scratches       = freelist.New[scanScratch]()
	columnScratches = freelist.New[columnScratch]()
)

// inflater reads byte ranges of a file, inflating the compressed ones.
// It is held for the duration of one footer or one stripe load.
type inflater struct {
	in  []byte       // the range as stored
	out []byte       // output for callers that parse and drop it (the footer)
	src bytes.Reader // what zr reads: in
	zr  io.Reader    // flate reader over src, created on first use
}

// load returns the length bytes of r at off — inflated when compressed —
// in dst's storage where it is large enough. The result shares nothing
// with z.
func (z *inflater) load(dst []byte, r io.ReaderAt, off int64, length int, compressed bool) ([]byte, error) {
	if !compressed {
		dst = slices.Grow(dst[:0], length)[:length]
		_, err := r.ReadAt(dst, off)
		return dst, err
	}
	if err := z.read(r, off, length); err != nil {
		return dst, err
	}
	return z.inflate(dst)
}

// read reads the length stored bytes of r at off into z.in.
func (z *inflater) read(r io.ReaderAt, off int64, length int) error {
	z.in = slices.Grow(z.in[:0], length)[:length]
	_, err := r.ReadAt(z.in, off)
	return err
}

// inflate inflates z.in into dst's storage where it is large enough.
func (z *inflater) inflate(dst []byte) ([]byte, error) {
	z.src.Reset(z.in)
	if z.zr == nil {
		z.zr = flate.NewReader(&z.src)
	} else if err := z.zr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return dst, err
	}
	dst = dst[:0]
	if cap(dst) < len(z.in) {
		dst = slices.Grow(dst, 2*len(z.in)) // a first guess; the loop corrects it
	}
	for {
		dst = slices.Grow(dst, 1)
		n, err := z.zr.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// deflater compresses one stream at a time into its own buffer. A
// Writer holds one from its first compressed stream to Close, so the
// bytes deflate returns stay valid until that writer's next call.
type deflater struct {
	buf bytes.Buffer
	zw  *flate.Writer // over buf, created on first use
}

func (z *deflater) deflate(b []byte) ([]byte, error) {
	z.buf.Reset()
	if z.zw == nil {
		zw, err := flate.NewWriter(&z.buf, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		z.zw = zw
	} else {
		z.zw.Reset(&z.buf)
	}
	if _, err := z.zw.Write(b); err != nil {
		return nil, err
	}
	if err := z.zw.Close(); err != nil {
		return nil, err
	}
	return z.buf.Bytes(), nil
}

// scanScratch is what a BatchReader allocates that outlives no scan:
// one cursor per column for the current stripe, one buffer per column
// for the streams of that stripe it had to decode itself (a stream cache
// hit decodes from the shared entry), the column vectors it lends its
// caller, and the lengths of a batch's direct strings. It returns to the
// free list at Close, its cursors cleared.
type scanScratch struct {
	cursors []columnCursor
	streams [][]byte
	vecs    []datum.ColumnVector
	ints    []int64
}

// columnScratch is one writer's column builders and footer buffer,
// borrowed at NewWriter. Close resets the builders, clearing their
// string slices so they pin no strings, and returns it; a writer that is
// never closed just drops it.
type columnScratch struct {
	cols   []columnBuilder
	footer []byte
}

// widened returns s with length n, keeping every element it ever held
// (and their buffers) for a later, wider use.
func widened[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}
