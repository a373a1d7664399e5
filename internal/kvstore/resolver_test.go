package kvstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// Focused tests of the MVCC version resolver against a brute-force
// model, with explicit timestamps.

type rawOp struct {
	row  string
	qual string
	ts   uint64
	typ  CellType
	val  string
}

// bruteVisible computes the visible view of a set of cells directly
// from the semantics: a tombstone at ts T hides everything with
// ts <= T; the newest surviving put per column wins.
func bruteVisible(ops []rawOp, maxVersions int) map[string][]string {
	out := map[string][]string{}
	rows := map[string]bool{}
	for _, o := range ops {
		rows[o.row] = true
	}
	for row := range rows {
		var rowDel uint64
		for _, o := range ops {
			if o.row == row && o.typ == TypeDeleteRow && o.ts > rowDel {
				rowDel = o.ts
			}
		}
		quals := map[string]bool{}
		for _, o := range ops {
			if o.row == row && o.typ != TypeDeleteRow {
				quals[o.qual] = true
			}
		}
		for q := range quals {
			var colDel uint64
			for _, o := range ops {
				if o.row == row && o.qual == q && o.typ == TypeDeleteColumn && o.ts > colDel {
					colDel = o.ts
				}
			}
			// Collect surviving puts, newest first.
			var puts []rawOp
			for _, o := range ops {
				if o.row == row && o.qual == q && o.typ == TypePut &&
					o.ts > rowDel && o.ts > colDel {
					puts = append(puts, o)
				}
			}
			for i := 0; i < len(puts); i++ {
				for j := i + 1; j < len(puts); j++ {
					if puts[j].ts > puts[i].ts {
						puts[i], puts[j] = puts[j], puts[i]
					}
				}
			}
			if len(puts) > maxVersions {
				puts = puts[:maxVersions]
			}
			for _, p := range puts {
				out[row+":"+q] = append(out[row+":"+q], p.val)
			}
		}
	}
	return out
}

func applyOps(t *testing.T, tbl *Table, ops []rawOp) {
	t.Helper()
	for _, o := range ops {
		c := &Cell{Row: []byte(o.row), Ts: o.ts, Type: o.typ}
		if o.typ != TypeDeleteRow {
			c.Family = "d"
			c.Qualifier = []byte(o.qual)
		}
		if o.typ == TypePut {
			c.Value = []byte(o.val)
		}
		if err := tbl.Put([]*Cell{c}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func scanVisible(t *testing.T, tbl *Table, maxVersions int) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	sc := tbl.NewScanner(Scan{MaxVersions: maxVersions})
	defer sc.Close()
	for {
		c, ok := sc.Next()
		if !ok {
			break
		}
		key := string(c.Row) + ":" + string(c.Qualifier)
		out[key] = append(out[key], string(c.Value))
	}
	return out
}

func TestResolverAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var ops []rawOp
			ts := uint64(0)
			for i := 0; i < 300; i++ {
				ts++
				o := rawOp{
					row:  fmt.Sprintf("r%d", rng.Intn(6)),
					qual: fmt.Sprintf("q%d", rng.Intn(3)),
					ts:   ts,
					val:  fmt.Sprintf("v%d", i),
				}
				switch rng.Intn(12) {
				case 0:
					o.typ = TypeDeleteRow
					o.qual = ""
				case 1:
					o.typ = TypeDeleteColumn
				default:
					o.typ = TypePut
				}
				ops = append(ops, o)
			}
			for _, maxV := range []int{1, 2, 3} {
				c := testCluster(t)
				tbl, _ := c.CreateTable(fmt.Sprintf("t%d", maxV))
				applyOps(t, tbl, ops)
				// Interleave a flush/compact to exercise file paths.
				tbl.Flush(nil)
				got := scanVisible(t, tbl, maxV)
				want := bruteVisible(ops, maxV)
				if len(got) != len(want) {
					t.Fatalf("maxV=%d: %d visible cols, want %d\ngot %v\nwant %v",
						maxV, len(got), len(want), got, want)
				}
				for k, w := range want {
					g := got[k]
					if len(g) != len(w) {
						t.Fatalf("maxV=%d %s: versions %v, want %v", maxV, k, g, w)
					}
					for i := range w {
						if g[i] != w[i] {
							t.Fatalf("maxV=%d %s[%d]: %q, want %q", maxV, k, i, g[i], w[i])
						}
					}
				}
			}
		})
	}
}

func TestResolverTombstoneAtSameTimestamp(t *testing.T) {
	// A tombstone at ts T hides a put at exactly ts T (HBase
	// semantics: delete covers cells with ts <= T).
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	applyOps(t, tbl, []rawOp{
		{row: "r", qual: "q", ts: 5, typ: TypePut, val: "v"},
		{row: "r", qual: "q", ts: 5, typ: TypeDeleteColumn},
	})
	if got := scanVisible(t, tbl, 1); len(got) != 0 {
		t.Errorf("same-ts tombstone should hide the put: %v", got)
	}
}

func TestResolverRowTombstoneThenNewerPut(t *testing.T) {
	c := testCluster(t)
	tbl, _ := c.CreateTable("t")
	applyOps(t, tbl, []rawOp{
		{row: "r", qual: "q", ts: 3, typ: TypePut, val: "old"},
		{row: "r", ts: 5, typ: TypeDeleteRow},
		{row: "r", qual: "q", ts: 7, typ: TypePut, val: "new"},
	})
	got := scanVisible(t, tbl, 3)
	vals := got["r:q"]
	if len(vals) != 1 || vals[0] != "new" {
		t.Errorf("visible after resurrect = %v", vals)
	}
}
