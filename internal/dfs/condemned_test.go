package dfs

import "testing"

// TestCondemnedObservability covers the Condemned hook DROP/retention
// tests rely on: false for live and absent paths, true from
// DeleteDeferred-while-pinned until the last pin removes the file.
func TestCondemnedObservability(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20})
	if err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	w, err := fs.Create("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("payload"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if fs.Condemned("/d/f") {
		t.Error("live file reported condemned")
	}
	if fs.Condemned("/d") || fs.Condemned("/d/absent") {
		t.Error("directory/absent path reported condemned")
	}
	if err := fs.Pin("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.DeleteDeferred("/d/f"); err != nil {
		t.Fatal(err)
	}
	if !fs.Condemned("/d/f") {
		t.Error("pinned deferred-deleted file not condemned")
	}
	if !fs.Exists("/d/f") {
		t.Error("condemned file must stay visible while pinned")
	}
	if err := fs.Unpin("/d/f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/d/f") || fs.Condemned("/d/f") {
		t.Error("condemned file survived its last unpin")
	}
}
