package orcfile

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"dualtable/internal/datum"
)

// Reader reads an ORC-like file from any io.ReaderAt. Everything but
// the source it reads stripes from is the parsed footer: immutable once
// Open returned, so WithSource copies share it.
type Reader struct {
	r          io.ReaderAt
	footerLen  int64
	schema     datum.Schema
	userMeta   map[string]string
	numRows    int64
	stripes    []stripeMeta
	fileStats  []ColumnStats
	compressed bool
}

// Open parses the tail and footer of a file. Every offset and length the
// footer declares is checked against the file here, once, so a Reader —
// however long it is kept — never indexes outside the file.
func Open(r io.ReaderAt, size int64) (*Reader, error) {
	if size < TailSize {
		return nil, fmt.Errorf("orcfile: file too small (%d bytes)", size)
	}
	var tail [TailSize]byte
	if _, err := r.ReadAt(tail[:], size-TailSize); err != nil {
		return nil, fmt.Errorf("orcfile: read tail: %w", err)
	}
	if binary.LittleEndian.Uint64(tail[24:]) != orcMagic {
		return nil, fmt.Errorf("orcfile: bad magic (not an ORC file)")
	}
	footerOff := binary.LittleEndian.Uint64(tail[0:])
	footerLen := binary.LittleEndian.Uint64(tail[8:])
	flags := binary.LittleEndian.Uint64(tail[16:])
	// Compared unsigned and without adding: footerOff+footerLen wraps.
	body := uint64(size - TailSize)
	if footerOff > body || footerLen > body-footerOff {
		return nil, fmt.Errorf("orcfile: footer out of bounds")
	}
	rd := &Reader{r: r, footerLen: int64(footerLen), compressed: flags&flagFlate != 0}
	z := inflaters.Get()
	defer inflaters.Put(z)
	fb, err := z.load(z.out, r, int64(footerOff), int(footerLen), rd.compressed)
	z.out = fb
	if err != nil {
		return nil, fmt.Errorf("orcfile: load footer: %w", err)
	}
	if err := rd.parseFooter(fb, footerOff); err != nil {
		return nil, err
	}
	return rd, nil
}

// WithSource returns a Reader of the same file that reads its stripes
// from r: a task that was handed an already-parsed footer binds it to
// its own file handle instead of reading and parsing the footer again.
func (rd *Reader) WithSource(r io.ReaderAt) *Reader {
	c := *rd
	c.r = r
	return &c
}

// FooterLen returns the stored length of the footer: with TailSize, the
// two reads Open made of the file.
func (rd *Reader) FooterLen() int64 { return rd.footerLen }

// parseFooter decodes fb. dataEnd is where the stripes end (the footer's
// offset); a stripe or stream reaching past it is rejected.
func (rd *Reader) parseFooter(fb []byte, dataEnd uint64) error {
	off := 0
	// Counts size allocations below, so none may exceed what fb could
	// hold at one byte per entry.
	count := func(what string) (int, error) {
		v, c := binary.Uvarint(fb[off:])
		if c <= 0 || v > uint64(len(fb)) {
			return 0, fmt.Errorf("orcfile: bad %s", what)
		}
		off += c
		return int(v), nil
	}
	ncols, err := count("footer schema count")
	if err != nil {
		return err
	}
	rd.schema = make(datum.Schema, 0, ncols)
	for i := 0; i < ncols; i++ {
		name, n, err := readBytesVal(fb, off)
		if err != nil {
			return err
		}
		off = n
		if off >= len(fb) {
			return fmt.Errorf("orcfile: truncated schema")
		}
		kind := datum.Kind(fb[off])
		off++
		rd.schema = append(rd.schema, datum.Column{Name: name, Kind: kind})
	}
	nmeta, err := count("meta count")
	if err != nil {
		return err
	}
	rd.userMeta = make(map[string]string, nmeta)
	for i := 0; i < nmeta; i++ {
		k, n, err := readBytesVal(fb, off)
		if err != nil {
			return err
		}
		off = n
		v, n2, err := readBytesVal(fb, off)
		if err != nil {
			return err
		}
		off = n2
		rd.userMeta[k] = v
	}
	rows, c := binary.Uvarint(fb[off:])
	if c <= 0 || rows > math.MaxInt64 {
		return fmt.Errorf("orcfile: bad row count")
	}
	rd.numRows = int64(rows)
	off += c
	nstripes, err := count("stripe count")
	if err != nil {
		return err
	}
	// Every stripe spends at least a byte on each header field and stream.
	if nstripes > 0 && 3+ncols > len(fb)/nstripes {
		return fmt.Errorf("orcfile: bad stripe count")
	}
	rd.stripes = make([]stripeMeta, 0, nstripes)
	// One backing array each for every stripe's streams and statistics.
	streams := make([]streamMeta, nstripes*ncols)
	stats := make([]ColumnStats, (nstripes+1)*ncols)
	for i := 0; i < nstripes; i++ {
		var hdr [3]uint64 // offset, length, rows
		for j := range hdr {
			v, n := binary.Uvarint(fb[off:])
			if n <= 0 {
				return fmt.Errorf("orcfile: bad stripe header")
			}
			hdr[j] = v
			off += n
		}
		if hdr[0] > dataEnd || hdr[1] > dataEnd-hdr[0] || hdr[2] > math.MaxInt64 {
			return fmt.Errorf("orcfile: stripe %d out of bounds", i)
		}
		sm := stripeMeta{offset: hdr[0], length: hdr[1], rows: int64(hdr[2]),
			streams: streams[i*ncols : (i+1)*ncols : (i+1)*ncols],
			stats:   stats[i*ncols : (i+1)*ncols : (i+1)*ncols]}
		for j := range sm.streams {
			ro, n := binary.Uvarint(fb[off:])
			if n <= 0 {
				return fmt.Errorf("orcfile: bad stream offset")
			}
			off += n
			sl, n2 := binary.Uvarint(fb[off:])
			if n2 <= 0 {
				return fmt.Errorf("orcfile: bad stream length")
			}
			off += n2
			if ro > sm.length || sl > sm.length-ro {
				return fmt.Errorf("orcfile: stripe %d stream %d out of bounds", i, j)
			}
			sm.streams[j] = streamMeta{relOff: ro, length: sl}
		}
		for j := range sm.stats {
			st, n, err := unmarshalStats(fb, off)
			if err != nil {
				return err
			}
			off = n
			sm.stats[j] = st
		}
		rd.stripes = append(rd.stripes, sm)
	}
	rd.fileStats = stats[nstripes*ncols:]
	for j := range rd.fileStats {
		st, n, err := unmarshalStats(fb, off)
		if err != nil {
			return err
		}
		off = n
		rd.fileStats[j] = st
	}
	return nil
}

// Schema returns the file schema.
func (rd *Reader) Schema() datum.Schema { return rd.schema }

// NumRows returns the total row count.
func (rd *Reader) NumRows() int64 { return rd.numRows }

// UserMeta returns the footer's user metadata.
func (rd *Reader) UserMeta() map[string]string { return rd.userMeta }

// NumStripes returns the stripe count.
func (rd *Reader) NumStripes() int { return len(rd.stripes) }

// StripeStats returns the per-column statistics of stripe i.
func (rd *Reader) StripeStats(i int) []ColumnStats { return rd.stripes[i].stats }

// FileStats returns the file-level per-column statistics.
func (rd *Reader) FileStats() []ColumnStats { return rd.fileStats }

// StripeRows returns the row count of stripe i.
func (rd *Reader) StripeRows(i int) int64 { return rd.stripes[i].rows }

// RowReaderOptions configures a scan.
type RowReaderOptions struct {
	// Columns projects a subset of columns by index (nil = all). A
	// batch still has one vector per schema column; unprojected columns
	// are all NULL — this keeps column indexes stable for the engine.
	Columns []int
	// SearchArg prunes stripes by statistics.
	SearchArg *SearchArg
}

// columnCursor decodes one column of the current stripe. A reader keeps
// its cursors by value in its scan scratch and overwrites each one as it
// opens a stripe.
type columnCursor struct {
	kind     datum.Kind
	presence bitReader
	// ints holds the values of an int column, and the dictionary
	// indexes or the value lengths of a string column.
	ints   intDecoder
	floats floatDecoder
	bools  bitReader
	// A string column's dictionary (nil when it is stored direct), or
	// its blob of values and the offset of the next one.
	dict    []string
	blob    []byte
	blobOff int
}

// loadStream returns the decoded bytes of the stream stored at off. A
// compressed stream is read into z and looked up in the stream cache: a
// hit returns the entry's bytes, which the caller must not write, and
// leaves *scratch alone; a miss inflates into *scratch and caches a copy,
// returning the entry (nil when the stream is too large to cache).
func (rd *Reader) loadStream(z *inflater, scratch *[]byte, off int64, length int) ([]byte, *streamEntry, error) {
	if !rd.compressed {
		buf, err := z.load(*scratch, rd.r, off, length, false)
		*scratch = buf
		return buf, nil, err
	}
	if err := z.read(rd.r, off, length); err != nil {
		return nil, nil, err
	}
	key, e := cache.lookup(z.in)
	if e != nil {
		return e.inflated, e, nil
	}
	buf, err := z.inflate(*scratch)
	*scratch = buf
	if err != nil {
		return nil, nil, err
	}
	return buf, cache.add(key, z.in, buf), nil
}

// open parses a column stream's headers into cur. e is the cache entry
// buf came from or was copied to (nil when none), where a dictionary is
// parsed once and kept.
func (cur *columnCursor) open(kind datum.Kind, buf []byte, e *streamEntry) error {
	plen, c := binary.Uvarint(buf)
	if c <= 0 {
		return fmt.Errorf("orcfile: bad presence length")
	}
	// Lengths are compared as they were read, unsigned: a converted one
	// can come out negative and pass.
	if plen > uint64(len(buf)-c) {
		return fmt.Errorf("orcfile: truncated presence bitmap")
	}
	data := buf[c+int(plen):]
	*cur = columnCursor{kind: kind, presence: bitReader{buf: buf[c : c+int(plen)]}}
	switch kind {
	case datum.KindInt:
		cur.ints.buf = data
	case datum.KindFloat:
		cur.floats.buf = data
	case datum.KindBool:
		cur.bools.buf = data
	case datum.KindString:
		if len(data) == 0 {
			break // zero non-null strings in this stripe
		}
		mode := data[0]
		data = data[1:]
		if mode == 0x01 { // dictionary
			var d *stringDict
			if e != nil {
				d = e.dict.Load()
			}
			if d == nil {
				var err error
				if d, err = parseDict(data); err != nil {
					return err
				}
				if e != nil {
					e.dict.Store(d)
				}
			}
			p := d.end
			il, c2 := binary.Uvarint(data[p:])
			if c2 <= 0 {
				return fmt.Errorf("orcfile: bad dict index length")
			}
			p += c2
			if il > uint64(len(data)-p) {
				return fmt.Errorf("orcfile: truncated dict indices")
			}
			cur.dict = d.vals
			cur.ints.buf = data[p : p+int(il)]
		} else { // direct
			ll, c := binary.Uvarint(data)
			if c <= 0 {
				return fmt.Errorf("orcfile: bad length-stream size")
			}
			p := c
			if ll > uint64(len(data)-p) {
				return fmt.Errorf("orcfile: truncated length stream")
			}
			cur.ints.buf = data[p : p+int(ll)]
			cur.blob = data[p+int(ll):]
		}
	default:
		return fmt.Errorf("orcfile: unsupported column kind %v", kind)
	}
	return nil
}

// parseDict parses the dictionary at the start of a string stream's data.
func parseDict(data []byte) (*stringDict, error) {
	n, c := binary.Uvarint(data)
	if c <= 0 || n > uint64(len(data)) { // an entry is a byte at least
		return nil, fmt.Errorf("orcfile: bad dict size")
	}
	p := c
	vals := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		s, np, err := readBytesVal(data, p)
		if err != nil {
			return nil, err
		}
		vals = append(vals, s)
		p = np
	}
	return &stringDict{vals: vals, end: p}, nil
}
