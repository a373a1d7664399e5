package kvstore

import (
	"fmt"
	"testing"

	"dualtable/internal/dfs"
)

// benchTable builds a table of files store files with disjoint key
// ranges, 2000 rows each.
func benchTable(b *testing.B, files int) *Table {
	b.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 20})
	c, err := NewCluster(fs, "/hbase")
	if err != nil {
		b.Fatal(err)
	}
	c.cfg.compactFiles = 1000 // keep the file stack
	tbl, err := c.CreateTable("t")
	if err != nil {
		b.Fatal(err)
	}
	for f := 0; f < files; f++ {
		var cells []*Cell
		for i := 0; i < 2000; i++ {
			cells = append(cells, &Cell{
				Row:       []byte(fmt.Sprintf("f%02d-row%05d", f, i)),
				Family:    "d",
				Qualifier: []byte("q"),
				Type:      TypePut,
				Value:     []byte("value"),
			})
		}
		if err := tbl.Put(cells, nil); err != nil {
			b.Fatal(err)
		}
		if err := tbl.Flush(nil); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// BenchmarkPutThroughput measures raw batched put throughput.
func BenchmarkPutThroughput(b *testing.B) {
	fs := dfs.New(dfs.Config{BlockSize: 1 << 20})
	c, err := NewCluster(fs, "/hbase")
	if err != nil {
		b.Fatal(err)
	}
	tbl, _ := c.CreateTable("t")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := make([]*Cell, 100)
		for j := range cells {
			cells[j] = &Cell{
				Row:       []byte(fmt.Sprintf("row%09d", i*100+j)),
				Family:    "d",
				Qualifier: []byte("q"),
				Type:      TypePut,
				Value:     []byte("0123456789abcdef"),
			}
		}
		if err := tbl.Put(cells, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanThroughput measures sorted range-scan throughput over
// memtable + store files.
func BenchmarkScanThroughput(b *testing.B) {
	tbl := benchTable(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := tbl.NewScanner(Scan{})
		n := 0
		for {
			if _, ok := sc.Next(); !ok {
				break
			}
			n++
		}
		sc.Close()
		if n != 8000 {
			b.Fatalf("scanned %d", n)
		}
	}
}
