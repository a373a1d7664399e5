package wire

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// FuzzFrameRoundTrip checks the framing invariant: any payload that
// writes must read back byte-identical, and a stream of frames
// re-frames losslessly.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte(nil), byte(TypeExec))
	f.Add([]byte("hello"), byte(TypeQuery))
	f.Add(bytes.Repeat([]byte{0xFF}, 1024), byte(TypeRowBatch))
	f.Fuzz(func(t *testing.T, payload []byte, ft byte) {
		if len(payload) > MaxFrame {
			t.Skip()
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Type(ft), payload); err != nil {
			t.Fatalf("write: %v", err)
		}
		gotT, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if gotT != Type(ft) {
			t.Fatalf("type = %v, want %v", gotT, Type(ft))
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mismatch: %d vs %d bytes", len(got), len(payload))
		}
	})
}

// FuzzDecodeNeverPanics drives arbitrary bytes through ReadFrame and
// every message decoder: malformed input must produce errors, never
// panics, hangs or huge allocations.
func FuzzDecodeNeverPanics(f *testing.F) {
	for _, tc := range roundTrips() {
		f.Add(tc.in.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	// Column frames: every kind, NULLs, empty strings, a mixed column
	// and an all-NULL one, at row counts around a bitmap byte.
	for _, n := range []int{0, 1, 7, 8, 9} {
		f.Add((&RowBatch{OpID: 7, Rows: columnRows(rand.New(rand.NewSource(int64(n))), n)}).Encode())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// Frame reader on raw bytes: must terminate with a frame or
		// an error.
		r := bytes.NewReader(b)
		for {
			_, _, err := ReadFrame(r)
			if err != nil {
				if err != io.EOF && err == nil {
					t.Fatal("unreachable")
				}
				break
			}
		}
		// Every decoder on the raw payload: error or success, no
		// panic.
		msgs := []message{
			&Hello{}, &HelloOK{}, &Set{}, &Prepare{}, &PrepareOK{},
			&Exec{}, &Query{}, &Fetch{}, &Cancel{}, &CloseStmt{},
			&CloseQuery{}, &OK{}, &Result{}, &RowHeader{}, &RowBatch{},
			&QueryEnd{}, &ErrorFrame{},
		}
		for _, m := range msgs {
			_ = m.Decode(b)
		}
		// Decode-encode-decode: anything that decodes must re-encode
		// to something that decodes to the same bytes.
		var q Query
		if err := q.Decode(b); err == nil {
			b2 := q.Encode()
			var q2 Query
			if err := q2.Decode(b2); err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !bytes.Equal(b2, q2.Encode()) {
				t.Fatal("re-encode not stable")
			}
		}
		var rb RowBatch
		if err := rb.Decode(b); err == nil {
			b2 := rb.Encode()
			var rb2 RowBatch
			if err := rb2.Decode(b2); err != nil {
				t.Fatalf("ROW_BATCH re-decode failed: %v", err)
			}
			if !bytes.Equal(b2, rb2.Encode()) {
				t.Fatal("ROW_BATCH re-encode not stable")
			}
		}
	})
}
