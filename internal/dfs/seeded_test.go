package dfs

import (
	"fmt"
	"strings"
	"testing"
)

// seededTrace replays a fixed serial script through a seeded injector
// configured as the storage chaos suite configures it, and renders
// every verdict as "i:fail" or "i:tear=n".
func seededTrace(seed int64) string {
	inj := NewSeededInjector(seed, 0.10).PathFilter("/warehouse/")
	ops := []Op{OpCreate, OpWrite, OpRename, OpDelete, OpUnpin}
	paths := []string{"/warehouse/t/f0", "/hbase/t/r0/wal-000001", "/warehouse/t/.staging/x"}
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		f := inj.Inject(ops[i%len(ops)], paths[i%len(paths)])
		switch {
		case f == nil:
		case f.TearBytes > 0:
			fmt.Fprintf(&sb, "%d:tear=%d ", i, f.TearBytes)
		default:
			fmt.Fprintf(&sb, "%d:fail ", i)
		}
	}
	return sb.String()
}

// seededGolden holds the traces of the chaos suite's seeds as the
// injector produced them before its schedule moved into internal/fault:
// a seed that once found a bug must keep replaying the same faults.
var seededGolden = map[int64]string{
	1: "9:fail 12:fail 47:fail 53:fail 56:fail 78:fail 81:tear=763 101:tear=235 125:fail 152:fail " +
		"161:tear=2345 173:fail 186:fail 203:fail 204:fail 231:fail 233:fail 236:tear=256 254:fail " +
		"255:fail 257:fail 278:fail 285:fail 287:fail 296:fail 297:fail ",
	7: "12:fail 35:fail 68:fail 89:fail 95:fail 111:fail 120:fail 167:fail 173:fail 174:fail 180:fail " +
		"195:fail 222:fail 237:fail 240:fail 251:fail 257:fail ",
	42: "2:fail 6:tear=2982 35:fail 48:fail 62:fail 84:fail 93:fail 113:fail 147:fail 173:fail 179:fail " +
		"186:tear=1732 210:fail 233:fail 278:fail 294:fail ",
}

func TestSeededInjectorReproducible(t *testing.T) {
	for seed, want := range seededGolden {
		if got := seededTrace(seed); got != want {
			t.Errorf("seed %d trace\n got %q\nwant %q", seed, got, want)
		}
	}
}
