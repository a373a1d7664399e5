package kvstore

import (
	"fmt"
	"sync"
	"testing"

	"dualtable/internal/dfs"
	"dualtable/internal/fault"
)

func putCell(st *store, row string) error {
	return st.put([]*Cell{{Row: []byte(row), Family: "d", Qualifier: []byte("q"), Ts: 1,
		Type: TypePut, Value: []byte("value-value")}}, nil, nil)
}

// A reader opened between a flush's swap and the install of its store
// file sees every acknowledged cell: the swapped memtable stays
// readable until the file is in place.
func TestFlushWindowReaderSeesAckedCells(t *testing.T) {
	fs := dfs.New(dfs.Config{BlockSize: 4096})
	st, err := openStore(fs, "/r", defaultStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := putCell(st, fmt.Sprintf("row%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	inWindow := false
	st.onFlushSwapped = func() {
		inWindow = true
		for i := 0; i < n; i++ {
			if got, err := st.get([]byte(fmt.Sprintf("row%03d", i)), nil); err != nil || len(got) != 1 {
				t.Errorf("get row%03d inside the flush window = %v, %v", i, got, err)
			}
		}
		sc := &Scanner{st: st}
		seen := 0
		for _, ok := sc.Next(); ok; _, ok = sc.Next() {
			seen++
		}
		if err := sc.Close(); err != nil || seen != n {
			t.Errorf("scan inside the flush window saw %d cells (%v), want %d", seen, err, n)
		}
	}
	if err := st.flush(nil, 0); err != nil {
		t.Fatal(err)
	}
	if !inWindow {
		t.Fatal("the flush never opened its window")
	}
}

// For each DFS op a store issues while parallel puts cross a
// small flush threshold, and for every k, the k-th occurrence of that
// op under the store directory fails (a write may also tear). After a
// crash and a reopen every acknowledged cell is present.
func TestFlushCrashAtEveryDFSOpKeepsAckedCells(t *testing.T) {
	cfg := storeConfig{flushBytes: 512, compactFiles: 3}
	for _, rule := range []dfs.FaultRule{
		{Op: dfs.OpCreate},
		{Op: dfs.OpWrite},
		{Op: dfs.OpWrite, Verdict: dfs.Fault{TearBytes: 5}},
		{Op: dfs.OpRename},
		{Op: dfs.OpDelete},
	} {
		for k := 1; ; k++ {
			rule.Subject, rule.Nth = "/r/", k
			inj := fault.NewSchedule(rule)
			lost := crashAndReopen(t, cfg, inj)
			if lost != "" {
				t.Fatalf("%s (tear %d) failed at occurrence %d: %s", rule.Op, rule.Verdict.TearBytes, k, lost)
			}
			if inj.Injected() == 0 {
				t.Logf("%s (tear %d): crashed at each of %d occurrences", rule.Op, rule.Verdict.TearBytes, k-1)
				break
			}
		}
	}
}

// When the delete of a flushed segment fails, the next flush deletes it
// before it swaps. Otherwise a major compaction could drop a tombstone
// and the put it covers, and a reopen would replay the put from the
// stale segment and bring the deleted cell back.
func TestFlushRetriesFailedSegmentDelete(t *testing.T) {
	fs := dfs.New(dfs.Config{BlockSize: 4096})
	st, err := openStore(fs, "/r", defaultStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := putCell(st, "row"); err != nil {
		t.Fatal(err)
	}
	fs.SetFaultInjector(fault.NewSchedule(dfs.FaultRule{Op: dfs.OpDelete, Subject: walPath("/r", 1)}))
	if err := st.flush(nil, 0); err == nil {
		t.Fatal("flush succeeded although its segment delete failed")
	}
	fs.SetFaultInjector(nil)
	del := &Cell{Row: []byte("row"), Family: "d", Qualifier: []byte("q"), Ts: 2, Type: TypeDeleteColumn}
	if err := st.put([]*Cell{del}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.compact(true, nil); err != nil {
		t.Fatal(err)
	}
	re, err := openStore(fs, "/r", defaultStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := re.get([]byte("row"), nil); err != nil || len(got) != 0 {
		t.Fatalf("deleted row reads back after a reopen as %v, %v", got, err)
	}
}

// crashAndReopen runs four putters on a fresh store under inj, abandons
// the store without closing it, reopens its directory fault-free and
// describes the first acknowledged cell the reopened store lacks.
func crashAndReopen(t *testing.T, cfg storeConfig, inj dfs.FaultInjector) string {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 256})
	st, err := openStore(fs, "/r", cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetFaultInjector(inj)
	var mu sync.Mutex
	var acked []string
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				row := fmt.Sprintf("w%d-%03d", w, i)
				if putCell(st, row) == nil {
					mu.Lock()
					acked = append(acked, row)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	fs.SetFaultInjector(nil)
	re, err := openStore(fs, "/r", cfg)
	if err != nil {
		return fmt.Sprintf("reopen: %v", err)
	}
	for _, row := range acked {
		if got, err := re.get([]byte(row), nil); err != nil || len(got) != 1 {
			return fmt.Sprintf("acknowledged %s reads back as %v, %v", row, got, err)
		}
	}
	return ""
}
