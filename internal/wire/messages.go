package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"dualtable/internal/datum"
)

// Message encodings. Every message encodes with Append* helpers
// (uvarint lengths, datum-encoded values) and decodes through a
// bounds-checked reader that accumulates the first error, so a
// malformed payload can never index out of range or allocate from an
// unchecked length.

// Hello opens a connection.
type Hello struct {
	Proto  uint32
	User   string
	Tenant string
	Token  string
}

// HelloOK accepts a handshake.
type HelloOK struct {
	Proto     uint32
	Server    string
	SessionID uint64
}

// Set stores one session variable.
type Set struct {
	Key   string
	Value string
}

// Prepare compiles a statement under a client-assigned id (ids are
// per-connection, start at 1; 0 is reserved for "inline SQL").
type Prepare struct {
	StmtID uint64
	SQL    string
}

// PrepareOK acknowledges a Prepare.
type PrepareOK struct {
	StmtID    uint64
	NumParams uint32
}

// Exec runs a statement to completion. StmtID 0 means SQL carries the
// statement text inline; otherwise SQL is empty and StmtID names a
// prepared statement. Args bind '?' placeholders in order.
type Exec struct {
	OpID   uint64
	StmtID uint64
	SQL    string
	Args   []datum.Datum
}

// Query runs a SELECT as a response stream. Window is the initial
// number of RowBatch credits (0 is treated as 1 by the server).
type Query struct {
	OpID   uint64
	StmtID uint64
	SQL    string
	Args   []datum.Datum
	Window uint32
}

// Fetch grants Credits additional RowBatch frames to an in-flight
// query.
type Fetch struct {
	OpID    uint64
	Credits uint32
}

// Cancel aborts an in-flight operation.
type Cancel struct {
	OpID uint64
}

// CloseStmt releases a prepared statement.
type CloseStmt struct {
	StmtID uint64
}

// CloseQuery abandons an in-flight query stream.
type CloseQuery struct {
	OpID uint64
}

// OK acknowledges a Set or Ping.
type OK struct {
	OpID uint64
}

// Result is a complete statement result (Exec response).
type Result struct {
	OpID       uint64
	Columns    []string
	Rows       []datum.Row
	Affected   int64
	SimSeconds float64
	Plan       string
}

// RowHeader opens a query stream.
type RowHeader struct {
	OpID    uint64
	Columns []string
}

// RowBatch carries one credit's worth of rows. It is the row-shaped
// convenience over the column-major payload (rowbatch.go): Encode
// transposes Rows and Decode cuts them back out. The server and the
// driver, which hold vectors, use AppendRowBatch and DecodeRowBatch.
type RowBatch struct {
	OpID uint64
	Rows []datum.Row
}

// QueryEnd terminates a query stream. Code 0 is a clean end; any
// other value is a stable dualtable.ErrCode with Msg as detail.
type QueryEnd struct {
	OpID       uint64
	SimSeconds float64
	Code       uint32
	Msg        string
}

// ErrorFrame reports a failed request. OpID echoes the request's op
// (or stmt) id; 0 means a connection-level error.
type ErrorFrame struct {
	OpID uint64
	Code uint32
	Msg  string
}

// ---- encoding primitives ----

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

func appendF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendDatums(dst []byte, ds []datum.Datum) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ds)))
	for _, d := range ds {
		dst = datum.AppendDatum(dst, d)
	}
	return dst
}

func appendRows(dst []byte, rows []datum.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, r := range rows {
		dst = datum.AppendRow(dst, r)
	}
	return dst
}

// reader is a bounds-checked payload decoder: the first failure
// sticks and every later accessor returns a zero value, so decode
// methods read all fields and check err once at the end.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, a ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, a...)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) u32() uint32 {
	v := r.uvarint()
	if r.err == nil && v > math.MaxUint32 {
		r.fail("value %d overflows uint32", v)
		return 0
	}
	return uint32(v)
}

func (r *reader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("short float64 at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	end := r.off + int(n)
	if n > uint64(len(r.b)) || end > len(r.b) || end < r.off {
		r.fail("short string (want %d bytes at offset %d)", n, r.off)
		return ""
	}
	s := string(r.b[r.off:end])
	r.off = end
	return s
}

func (r *reader) strings() []string {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) { // each string costs ≥1 byte
		r.fail("string count %d exceeds payload", n)
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.str())
		if r.err != nil {
			return nil
		}
	}
	return out
}

func (r *reader) datums() []datum.Datum {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) { // each datum costs ≥1 byte
		r.fail("datum count %d exceeds payload", n)
		return nil
	}
	out := make([]datum.Datum, 0, n)
	for i := uint64(0); i < n; i++ {
		d, dn, err := datum.DecodeDatum(r.b[r.off:])
		if err != nil {
			r.fail("datum %d: %v", i, err)
			return nil
		}
		r.off += dn
		out = append(out, d)
	}
	return out
}

func (r *reader) rows() []datum.Row {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) { // each row costs ≥1 byte
		r.fail("row count %d exceeds payload", n)
		return nil
	}
	out := make([]datum.Row, 0, n)
	for i := uint64(0); i < n; i++ {
		row, rn, err := datum.DecodeRow(r.b[r.off:])
		if err != nil {
			r.fail("row %d: %v", i, err)
			return nil
		}
		r.off += rn
		out = append(out, row)
	}
	return out
}

// finish reports the accumulated decode error, also rejecting
// trailing garbage after a structurally valid message.
func (r *reader) finish(what string) error {
	if r.err != nil {
		return fmt.Errorf("%s: %w", what, r.err)
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%s: wire: %d trailing bytes", what, len(r.b)-r.off)
	}
	return nil
}

// ---- per-message Encode / Decode ----

// Encode serializes the message payload.
func (m *Hello) Encode() []byte {
	b := binary.AppendUvarint(nil, uint64(m.Proto))
	b = appendString(b, m.User)
	b = appendString(b, m.Tenant)
	return appendString(b, m.Token)
}

// Decode parses the message payload.
func (m *Hello) Decode(b []byte) error {
	r := &reader{b: b}
	m.Proto = r.u32()
	m.User = r.str()
	m.Tenant = r.str()
	m.Token = r.str()
	return r.finish("HELLO")
}

// Encode serializes the message payload.
func (m *HelloOK) Encode() []byte {
	b := binary.AppendUvarint(nil, uint64(m.Proto))
	b = appendString(b, m.Server)
	return binary.AppendUvarint(b, m.SessionID)
}

// Decode parses the message payload.
func (m *HelloOK) Decode(b []byte) error {
	r := &reader{b: b}
	m.Proto = r.u32()
	m.Server = r.str()
	m.SessionID = r.uvarint()
	return r.finish("HELLO_OK")
}

// Encode serializes the message payload.
func (m *Set) Encode() []byte {
	b := appendString(nil, m.Key)
	return appendString(b, m.Value)
}

// Decode parses the message payload.
func (m *Set) Decode(b []byte) error {
	r := &reader{b: b}
	m.Key = r.str()
	m.Value = r.str()
	return r.finish("SET")
}

// Encode serializes the message payload.
func (m *Prepare) Encode() []byte {
	b := binary.AppendUvarint(nil, m.StmtID)
	return appendString(b, m.SQL)
}

// Decode parses the message payload.
func (m *Prepare) Decode(b []byte) error {
	r := &reader{b: b}
	m.StmtID = r.uvarint()
	m.SQL = r.str()
	return r.finish("PREPARE")
}

// Encode serializes the message payload.
func (m *PrepareOK) Encode() []byte {
	b := binary.AppendUvarint(nil, m.StmtID)
	return binary.AppendUvarint(b, uint64(m.NumParams))
}

// Decode parses the message payload.
func (m *PrepareOK) Decode(b []byte) error {
	r := &reader{b: b}
	m.StmtID = r.uvarint()
	m.NumParams = r.u32()
	return r.finish("PREPARE_OK")
}

// Encode serializes the message payload.
func (m *Exec) Encode() []byte {
	b := binary.AppendUvarint(nil, m.OpID)
	b = binary.AppendUvarint(b, m.StmtID)
	b = appendString(b, m.SQL)
	return appendDatums(b, m.Args)
}

// Decode parses the message payload.
func (m *Exec) Decode(b []byte) error {
	r := &reader{b: b}
	m.OpID = r.uvarint()
	m.StmtID = r.uvarint()
	m.SQL = r.str()
	m.Args = r.datums()
	return r.finish("EXEC")
}

// Encode serializes the message payload.
func (m *Query) Encode() []byte {
	b := binary.AppendUvarint(nil, m.OpID)
	b = binary.AppendUvarint(b, m.StmtID)
	b = appendString(b, m.SQL)
	b = appendDatums(b, m.Args)
	return binary.AppendUvarint(b, uint64(m.Window))
}

// Decode parses the message payload.
func (m *Query) Decode(b []byte) error {
	r := &reader{b: b}
	m.OpID = r.uvarint()
	m.StmtID = r.uvarint()
	m.SQL = r.str()
	m.Args = r.datums()
	m.Window = r.u32()
	return r.finish("QUERY")
}

// Encode serializes the message payload.
func (m *Fetch) Encode() []byte {
	b := binary.AppendUvarint(nil, m.OpID)
	return binary.AppendUvarint(b, uint64(m.Credits))
}

// Decode parses the message payload.
func (m *Fetch) Decode(b []byte) error {
	r := &reader{b: b}
	m.OpID = r.uvarint()
	m.Credits = r.u32()
	return r.finish("FETCH")
}

// Encode serializes the message payload.
func (m *Cancel) Encode() []byte { return binary.AppendUvarint(nil, m.OpID) }

// Decode parses the message payload.
func (m *Cancel) Decode(b []byte) error {
	r := &reader{b: b}
	m.OpID = r.uvarint()
	return r.finish("CANCEL")
}

// Encode serializes the message payload.
func (m *CloseStmt) Encode() []byte { return binary.AppendUvarint(nil, m.StmtID) }

// Decode parses the message payload.
func (m *CloseStmt) Decode(b []byte) error {
	r := &reader{b: b}
	m.StmtID = r.uvarint()
	return r.finish("CLOSE_STMT")
}

// Encode serializes the message payload.
func (m *CloseQuery) Encode() []byte { return binary.AppendUvarint(nil, m.OpID) }

// Decode parses the message payload.
func (m *CloseQuery) Decode(b []byte) error {
	r := &reader{b: b}
	m.OpID = r.uvarint()
	return r.finish("CLOSE_QUERY")
}

// Encode serializes the message payload.
func (m *OK) Encode() []byte { return binary.AppendUvarint(nil, m.OpID) }

// Decode parses the message payload.
func (m *OK) Decode(b []byte) error {
	r := &reader{b: b}
	m.OpID = r.uvarint()
	return r.finish("OK")
}

// Encode serializes the message payload.
func (m *Result) Encode() []byte {
	b := binary.AppendUvarint(nil, m.OpID)
	b = appendStrings(b, m.Columns)
	b = appendRows(b, m.Rows)
	b = binary.AppendVarint(b, m.Affected)
	b = appendF64(b, m.SimSeconds)
	return appendString(b, m.Plan)
}

// Decode parses the message payload.
func (m *Result) Decode(b []byte) error {
	r := &reader{b: b}
	m.OpID = r.uvarint()
	m.Columns = r.strings()
	m.Rows = r.rows()
	m.Affected = r.varint()
	m.SimSeconds = r.f64()
	m.Plan = r.str()
	return r.finish("RESULT")
}

// Encode serializes the message payload.
func (m *RowHeader) Encode() []byte {
	b := binary.AppendUvarint(nil, m.OpID)
	return appendStrings(b, m.Columns)
}

// Decode parses the message payload.
func (m *RowHeader) Decode(b []byte) error {
	r := &reader{b: b}
	m.OpID = r.uvarint()
	m.Columns = r.strings()
	return r.finish("ROW_HEADER")
}

// Encode serializes the message payload.
func (m *QueryEnd) Encode() []byte {
	b := binary.AppendUvarint(nil, m.OpID)
	b = appendF64(b, m.SimSeconds)
	b = binary.AppendUvarint(b, uint64(m.Code))
	return appendString(b, m.Msg)
}

// Decode parses the message payload.
func (m *QueryEnd) Decode(b []byte) error {
	r := &reader{b: b}
	m.OpID = r.uvarint()
	m.SimSeconds = r.f64()
	m.Code = r.u32()
	m.Msg = r.str()
	return r.finish("QUERY_END")
}

// Encode serializes the message payload.
func (m *ErrorFrame) Encode() []byte {
	b := binary.AppendUvarint(nil, m.OpID)
	b = binary.AppendUvarint(b, uint64(m.Code))
	return appendString(b, m.Msg)
}

// Decode parses the message payload.
func (m *ErrorFrame) Decode(b []byte) error {
	r := &reader{b: b}
	m.OpID = r.uvarint()
	m.Code = r.u32()
	m.Msg = r.str()
	return r.finish("ERROR")
}
