package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"dualtable/internal/sim"
)

func testFS() *FileSystem {
	return New(Config{BlockSize: 128})
}

func TestWriteReadRoundtrip(t *testing.T) {
	fs := testFS()
	data := []byte("hello dualtable master table")
	if err := fs.WriteFile("/a.txt", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("roundtrip mismatch: %q vs %q", got, data)
	}
}

func TestMultiBlockFile(t *testing.T) {
	fs := New(Config{BlockSize: 10})
	data := make([]byte, 95)
	for i := range data {
		data[i] = byte(i)
	}
	if err := fs.WriteFile("/big", data); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.Stat("/big")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 95 || fi.Blocks != 10 {
		t.Errorf("Stat = %+v, want size 95, 10 blocks", fi)
	}
	got, err := fs.ReadFile("/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("multi-block roundtrip mismatch")
	}
}

func TestCreateFailsIfExists(t *testing.T) {
	fs := testFS()
	if err := fs.WriteFile("/x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/x"); !errors.Is(err, ErrExists) {
		t.Errorf("Create existing = %v, want ErrExists", err)
	}
}

func TestCreateRequiresParent(t *testing.T) {
	fs := testFS()
	if _, err := fs.Create("/no/parent/file"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Create without parent = %v, want ErrNotFound", err)
	}
}

func TestMkdirAllAndList(t *testing.T) {
	fs := testFS()
	if err := fs.MkdirAll("/warehouse/db/table"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/warehouse/db/table/f1", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/warehouse/db/table/f0", []byte("bb")); err != nil {
		t.Fatal(err)
	}
	infos, err := fs.List("/warehouse/db/table")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "f0" || infos[1].Name != "f1" {
		t.Errorf("List = %+v", infos)
	}
	du, err := fs.Du("/warehouse")
	if err != nil || du != 3 {
		t.Errorf("Du = %d, %v; want 3", du, err)
	}
}

func TestMkdirExistingFails(t *testing.T) {
	fs := testFS()
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d"); !errors.Is(err, ErrExists) {
		t.Errorf("Mkdir existing = %v", err)
	}
	// MkdirAll on existing should be fine.
	if err := fs.MkdirAll("/d"); err != nil {
		t.Errorf("MkdirAll existing = %v", err)
	}
}

func TestAppendResumesTail(t *testing.T) {
	fs := New(Config{BlockSize: 8})
	if err := fs.WriteFile("/log", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	w, err := fs.Append("/log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("67890AB")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "1234567890AB" {
		t.Errorf("append result = %q", got)
	}
	fi, _ := fs.Stat("/log")
	if fi.Blocks != 2 {
		t.Errorf("append should reuse tail block: %d blocks", fi.Blocks)
	}
}

func TestSingleWriterEnforced(t *testing.T) {
	fs := testFS()
	w, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Append("/f"); !errors.Is(err, ErrFileOpen) {
		t.Errorf("Append while writing = %v", err)
	}
	if _, err := fs.Open("/f"); !errors.Is(err, ErrFileOpen) {
		t.Errorf("Open while writing = %v", err)
	}
	if err := fs.Delete("/f", false); !errors.Is(err, ErrFileOpen) {
		t.Errorf("Delete while writing = %v", err)
	}
	w.Close()
	if _, err := fs.Open("/f"); err != nil {
		t.Errorf("Open after close = %v", err)
	}
}

func TestDeleteSemantics(t *testing.T) {
	fs := testFS()
	fs.MkdirAll("/d/sub")
	fs.WriteFile("/d/sub/f", []byte("x"))
	if err := fs.Delete("/d", false); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("non-recursive delete of non-empty dir = %v", err)
	}
	if err := fs.Delete("/d", true); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/d") {
		t.Error("dir should be gone")
	}
	if fs.Metrics().LiveBlocks != 0 {
		t.Errorf("blocks leaked: %d", fs.Metrics().LiveBlocks)
	}
}

func TestRenameAtomicSwap(t *testing.T) {
	fs := testFS()
	fs.MkdirAll("/warehouse/t")
	fs.MkdirAll("/tmp/t_new")
	fs.WriteFile("/tmp/t_new/part-0", []byte("new data"))
	// The INSERT OVERWRITE pattern: delete old dir, rename staging in.
	if err := fs.Delete("/warehouse/t", true); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/tmp/t_new", "/warehouse/t"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/warehouse/t/part-0")
	if err != nil || string(got) != "new data" {
		t.Errorf("after swap: %q, %v", got, err)
	}
}

func TestRenameFailsIfDestExists(t *testing.T) {
	fs := testFS()
	fs.WriteFile("/a", []byte("1"))
	fs.WriteFile("/b", []byte("2"))
	if err := fs.Rename("/a", "/b"); !errors.Is(err, ErrExists) {
		t.Errorf("Rename onto existing = %v", err)
	}
}

func TestRenameIntoOwnSubtreeFails(t *testing.T) {
	fs := testFS()
	fs.MkdirAll("/a/b")
	if err := fs.Rename("/a", "/a/b/c"); !errors.Is(err, ErrInvalidPath) {
		t.Errorf("Rename into own subtree = %v", err)
	}
}

func TestReaderAtAndSeek(t *testing.T) {
	fs := New(Config{BlockSize: 4})
	fs.WriteFile("/f", []byte("0123456789"))
	r, err := fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 3)
	if _, err := r.ReadAt(buf, 5); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "567" {
		t.Errorf("ReadAt(5) = %q", buf)
	}
	if _, err := r.Seek(8, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	n, err := r.Read(buf)
	if n != 2 || (err != nil && err != io.EOF) {
		t.Errorf("Read at tail = %d, %v", n, err)
	}
	if string(buf[:2]) != "89" {
		t.Errorf("tail read = %q", buf[:2])
	}
	if _, err := r.ReadAt(buf, 100); err != io.EOF {
		t.Errorf("ReadAt past EOF = %v", err)
	}
	if _, err := r.Seek(-1, io.SeekStart); err == nil {
		t.Error("negative seek should fail")
	}
}

func TestChecksumDetection(t *testing.T) {
	fs := New(Config{BlockSize: 8, VerifyOnRead: true})
	fs.WriteFile("/f", []byte("abcdefgh12345678"))
	if err := fs.VerifyChecksums("/f"); err != nil {
		t.Fatalf("clean file reports corruption: %v", err)
	}
	if err := fs.CorruptBlock("/f", 1); err != nil {
		t.Fatal(err)
	}
	if err := fs.VerifyChecksums("/f"); !errors.Is(err, ErrCorruptBlock) {
		t.Errorf("VerifyChecksums on corrupt = %v", err)
	}
	r, _ := fs.Open("/f")
	defer r.Close()
	buf := make([]byte, 16)
	if _, err := io.ReadFull(r, buf); !errors.Is(err, ErrCorruptBlock) {
		t.Errorf("verifying read on corrupt block = %v", err)
	}
}

func TestUserMetaAndFileID(t *testing.T) {
	fs := testFS()
	w, err := fs.Create("/orc-1")
	if err != nil {
		t.Fatal(err)
	}
	w.SetFileID(42)
	w.SetUserMeta("dualtable.fileid", "42")
	w.Write([]byte("data"))
	w.Close()
	meta, id, err := fs.UserMeta("/orc-1")
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 || meta["dualtable.fileid"] != "42" {
		t.Errorf("UserMeta = %v, id %d", meta, id)
	}
	fi, _ := fs.Stat("/orc-1")
	if fi.FileID != 42 {
		t.Errorf("Stat.FileID = %d", fi.FileID)
	}
}

func TestMeterCharges(t *testing.T) {
	p := sim.GridCluster()
	meter := sim.NewMeter(&p)
	fs := testFS()
	w, err := fs.CreateMeter("/f", meter)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(make([]byte, 1000))
	w.Close()
	r, err := fs.OpenMeter("/f", meter)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r)
	r.Close()
	if meter.Seconds() <= 0 {
		t.Error("meter should have accumulated simulated time")
	}
	if c := meter.Counts(); c[sim.DFSWriteBytes] != 1000 || c[sim.DFSReadBytes] != 1000 {
		t.Errorf("meter bytes = %d written, %d read", c[sim.DFSWriteBytes], c[sim.DFSReadBytes])
	}
}

func TestWalk(t *testing.T) {
	fs := testFS()
	fs.MkdirAll("/a/b")
	fs.WriteFile("/a/f1", []byte("1"))
	fs.WriteFile("/a/b/f2", []byte("2"))
	var paths []string
	err := fs.Walk("/a", func(fi FileInfo) error {
		paths = append(paths, fi.Path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || paths[0] != "/a/b/f2" || paths[1] != "/a/f1" {
		t.Errorf("Walk = %v", paths)
	}
}

func TestInvalidPaths(t *testing.T) {
	fs := testFS()
	if _, err := fs.Stat("relative/path"); !errors.Is(err, ErrInvalidPath) {
		t.Errorf("relative path = %v", err)
	}
	if _, err := fs.Stat(""); !errors.Is(err, ErrInvalidPath) {
		t.Errorf("empty path = %v", err)
	}
	if err := fs.Delete("/", true); !errors.Is(err, ErrInvalidPath) {
		t.Errorf("delete root = %v", err)
	}
}

// TestPinUnpinCleanPathAllocatesNothing: a lookup walks a clean path's
// components in place, so a snapshot's pin and unpin of a file cost no
// allocation, while a malformed path still fails as invalid.
func TestPinUnpinCleanPathAllocatesNothing(t *testing.T) {
	fs := testFS()
	if err := fs.MkdirAll("/warehouse/t/epoch"); err != nil {
		t.Fatal(err)
	}
	w, err := fs.Create("/warehouse/t/epoch/part-0")
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	const p = "/warehouse/t/epoch/part-0"
	if n := testing.AllocsPerRun(100, func() {
		if fs.Pin(p) != nil || fs.Unpin(p) != nil {
			t.Fatal("pin/unpin failed")
		}
	}); n != 0 {
		t.Errorf("Pin+Unpin of a clean path: %v allocations, want 0", n)
	}
	// Unclean spellings of the same file still resolve.
	if err := fs.Pin("/warehouse//t/./epoch/../epoch/part-0"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unpin(p + "/"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "warehouse/t", "./x"} {
		if err := fs.Pin(bad); !errors.Is(err, ErrInvalidPath) {
			t.Errorf("Pin(%q) = %v, want ErrInvalidPath", bad, err)
		}
		if err := fs.Unpin(bad); !errors.Is(err, ErrInvalidPath) {
			t.Errorf("Unpin(%q) = %v, want ErrInvalidPath", bad, err)
		}
	}
	if err := fs.Unpin("/"); !errors.Is(err, ErrInvalidPath) {
		t.Errorf("Unpin(/) = %v, want ErrInvalidPath", err)
	}
}

func TestStatDirectoryVsFile(t *testing.T) {
	fs := testFS()
	fs.MkdirAll("/d")
	fi, err := fs.Stat("/d")
	if err != nil || !fi.IsDir {
		t.Errorf("Stat dir = %+v, %v", fi, err)
	}
	if _, err := fs.Open("/d"); !errors.Is(err, ErrIsDirectory) {
		t.Errorf("Open dir = %v", err)
	}
	if _, err := fs.List("/d"); err != nil {
		t.Errorf("List empty dir = %v", err)
	}
	fs.WriteFile("/f", nil)
	if _, err := fs.List("/f"); !errors.Is(err, ErrNotDirectory) {
		t.Errorf("List file = %v", err)
	}
}

func TestConcurrentWritersDistinctFiles(t *testing.T) {
	fs := New(Config{BlockSize: 64})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := fmt.Sprintf("/f%d", i)
			data := bytes.Repeat([]byte{byte(i)}, 100+i)
			if err := fs.WriteFile(p, data); err != nil {
				errs <- err
				return
			}
			got, err := fs.ReadFile(p)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("file %d mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPropertyRoundtripArbitrarySizes(t *testing.T) {
	f := func(seed int64, blockExp uint8, size uint16) bool {
		bs := int64(1) << (blockExp%8 + 1) // 2..256
		fs := New(Config{BlockSize: bs})
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, int(size)%4096)
		rng.Read(data)
		if err := fs.WriteFile("/f", data); err != nil {
			return false
		}
		got, err := fs.ReadFile("/f")
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAppendEquivalentToSingleWrite(t *testing.T) {
	f := func(seed int64, chunks uint8) bool {
		fs := New(Config{BlockSize: 16})
		rng := rand.New(rand.NewSource(seed))
		var want []byte
		w, err := fs.Create("/f")
		if err != nil {
			return false
		}
		w.Close()
		n := int(chunks%10) + 1
		for i := 0; i < n; i++ {
			chunk := make([]byte, rng.Intn(50))
			rng.Read(chunk)
			want = append(want, chunk...)
			aw, err := fs.Append("/f")
			if err != nil {
				return false
			}
			if _, err := aw.Write(chunk); err != nil {
				return false
			}
			if err := aw.Close(); err != nil {
				return false
			}
		}
		got, err := fs.ReadFile("/f")
		if err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	fs := testFS()
	w, _ := fs.Create("/f")
	w.Close()
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close = %v", err)
	}
	if err := w.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close = %v", err)
	}
}

func TestReadAfterCloseFails(t *testing.T) {
	fs := testFS()
	fs.WriteFile("/f", []byte("abc"))
	r, _ := fs.Open("/f")
	r.Close()
	if _, err := r.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close = %v", err)
	}
}

func TestRecoverLeaseFencesOldWriter(t *testing.T) {
	fs := testFS()
	w, err := fs.Create("/wal")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("record1"))
	// Crash: writer never closes. A new owner recovers the lease.
	if err := fs.RecoverLease("/wal"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/wal")
	if err != nil || string(got) != "record1" {
		t.Errorf("post-recovery read = %q, %v", got, err)
	}
	// The zombie writer must be fenced.
	if _, err := w.Write([]byte("zombie")); !errors.Is(err, ErrClosed) {
		t.Errorf("fenced writer write = %v", err)
	}
	// Recovering a closed file is a no-op.
	if err := fs.RecoverLease("/wal"); err != nil {
		t.Errorf("idempotent recovery = %v", err)
	}
	// Recovering a directory fails.
	fs.MkdirAll("/d")
	if err := fs.RecoverLease("/d"); !errors.Is(err, ErrIsDirectory) {
		t.Errorf("recover dir = %v", err)
	}
}

func TestEmptyFile(t *testing.T) {
	fs := testFS()
	if err := fs.WriteFile("/empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/empty")
	if err != nil || len(got) != 0 {
		t.Errorf("empty file read = %v, %v", got, err)
	}
	fi, _ := fs.Stat("/empty")
	if fi.Size != 0 || fi.Blocks != 0 {
		t.Errorf("empty file stat = %+v", fi)
	}
}

// TestDeferredDeletionWithPins is the snapshot-pinning contract
// superseded master files rely on: a condemned file survives —
// readable, visible, blocks allocated — exactly as long as any pin
// holds it, and is removed the instant the last pin drops. Never
// before.
func TestDeferredDeletionWithPins(t *testing.T) {
	fs := testFS()
	data := []byte("superseded master file contents, several blocks long....")
	if err := fs.WriteFile("/m-1.orc", data); err != nil {
		t.Fatal(err)
	}

	// Two snapshots pin the file; a compaction condemns it.
	if err := fs.Pin("/m-1.orc"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Pin("/m-1.orc"); err != nil {
		t.Fatal(err)
	}
	if err := fs.DeleteDeferred("/m-1.orc"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/m-1.orc") {
		t.Fatal("condemned file removed while pinned")
	}
	// Still fully readable mid-condemnation.
	got, err := fs.ReadFile("/m-1.orc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("condemned read: %v", err)
	}

	// First snapshot closes: the remaining pin still holds it.
	if err := fs.Unpin("/m-1.orc"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/m-1.orc") {
		t.Fatal("condemned file removed before last pin dropped")
	}
	if n := fs.Pins("/m-1.orc"); n != 1 {
		t.Fatalf("pins = %d, want 1", n)
	}

	// Last snapshot closes: file and blocks go.
	if err := fs.Unpin("/m-1.orc"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/m-1.orc") {
		t.Fatal("condemned file survived last unpin")
	}
	if n := fs.Metrics().LiveBlocks; n != 0 {
		t.Errorf("blocks leaked after deferred deletion: %d", n)
	}
	if fs.Metrics().FilesDeleted != 1 {
		t.Errorf("FilesDeleted = %d", fs.Metrics().FilesDeleted)
	}
}

// TestDeferredDeletionUnpinned removes immediately when nothing pins
// the file, and pins without a condemnation never delete.
func TestDeferredDeletionUnpinned(t *testing.T) {
	fs := testFS()
	if err := fs.WriteFile("/a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.DeleteDeferred("/a"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a") {
		t.Fatal("unpinned DeleteDeferred must remove immediately")
	}

	// Pin/Unpin without condemnation leaves the file alone.
	if err := fs.WriteFile("/b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Pin("/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unpin("/b"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/b") {
		t.Fatal("unpin deleted a non-condemned file")
	}
	// Double unpin is an error, not a crash.
	if err := fs.Unpin("/b"); err == nil {
		t.Error("unpin of unpinned file should fail")
	}
	// Directories cannot be pinned or deferred-deleted.
	if err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Pin("/d"); err == nil {
		t.Error("pin of a directory should fail")
	}
	if err := fs.DeleteDeferred("/d"); err == nil {
		t.Error("DeleteDeferred of a directory should fail")
	}
}
