package netfault

import (
	"fmt"
	"strings"
	"testing"
)

// seededTrace replays a fixed serial script of reads, writes and
// accepts through inj and renders every verdict as "i:delay=ns",
// "i:corrupt", "i:trunc=n", "i:reset" or "i:stall".
func seededTrace(inj *SeededInjector) string {
	ops := []Op{OpRead, OpWrite, OpAccept}
	sizes := []int{1, 2, 17, 4096}
	var sb strings.Builder
	for i := 0; i < 600; i++ {
		op, n := ops[i%len(ops)], 0
		if op != OpAccept {
			n = sizes[i%len(sizes)]
		}
		f := inj.Inject(op, n)
		switch {
		case f == nil:
		case f.Delay > 0:
			fmt.Fprintf(&sb, "%d:delay=%d ", i, f.Delay)
		case f.Corrupt:
			fmt.Fprintf(&sb, "%d:corrupt ", i)
		case f.TruncateBytes > 0:
			fmt.Fprintf(&sb, "%d:trunc=%d ", i, f.TruncateBytes)
		case f.Reset:
			fmt.Fprintf(&sb, "%d:reset ", i)
		case f.Stall:
			fmt.Fprintf(&sb, "%d:stall ", i)
		}
	}
	return sb.String()
}

// seededGolden holds the traces of the network chaos suite's server
// (seed+1000, p=0.04, stalls on) and client (seed, p=0.06, stalls off)
// injectors as they were produced before the schedule moved into
// internal/fault: a seed that once found a bug must keep replaying the
// same faults.
var seededGolden = map[string]string{
	"srv/3": "12:delay=1303661 14:delay=46809 30:reset 36:reset 42:delay=1042846 61:delay=2413972 88:stall " +
		"116:delay=1015964 198:corrupt 236:delay=1951904 241:corrupt 256:delay=227189 258:corrupt " +
		"282:delay=537649 289:delay=119982 339:delay=994282 368:reset 374:reset 381:delay=1484111 " +
		"394:reset 395:reset 396:corrupt 408:delay=2266275 427:reset 530:delay=2937579 544:reset ",
	"cli/3": "42:reset 45:reset 55:corrupt 72:corrupt 78:reset 92:reset 97:trunc=1 107:delay=1645374 " +
		"128:delay=2454629 135:reset 149:delay=2702035 153:corrupt 161:delay=404250 187:delay=841742 " +
		"190:delay=858896 205:delay=2432891 206:delay=1250019 209:reset 216:delay=2242626 " +
		"274:delay=2809305 303:delay=2864206 304:delay=2275784 324:corrupt 351:reset 353:reset " +
		"360:corrupt 361:corrupt 372:reset 385:delay=2386999 416:reset 427:delay=876624 " +
		"434:delay=2049711 449:reset 464:reset 481:delay=2025330 495:delay=2729803 516:delay=118925 " +
		"542:reset 590:delay=2666620 ",
	"srv/11": "4:reset 9:stall 51:delay=1869303 55:reset 74:delay=447285 92:stall 112:stall " +
		"117:delay=1279176 132:corrupt 142:delay=724031 168:reset 234:delay=1525110 270:corrupt " +
		"286:trunc=15 294:reset 311:delay=2059670 328:reset 341:reset 358:delay=2394799 384:reset " +
		"433:trunc=1 455:delay=1956444 461:reset 474:reset 476:reset 504:delay=1264388 513:reset " +
		"539:delay=2418958 548:reset 556:corrupt 598:reset ",
	"cli/11": "41:delay=668562 47:reset 48:reset 60:corrupt 62:reset 85:reset 112:reset 135:reset " +
		"139:reset 143:reset 191:delay=1983407 207:reset 227:reset 235:trunc=2011 238:delay=746640 " +
		"250:delay=286316 254:reset 256:delay=1695143 259:delay=1584702 262:trunc=8 292:delay=2123480 " +
		"296:reset 324:corrupt 346:delay=791269 347:reset 360:corrupt 368:reset 377:delay=1689593 " +
		"379:trunc=4076 431:delay=1146021 476:reset 481:trunc=1 482:reset 487:delay=734344 " +
		"490:delay=313902 493:reset 496:reset 519:reset 522:reset 533:reset 562:delay=2501324 " +
		"590:reset 598:trunc=3 ",
	"srv/23": "52:delay=2629013 74:stall 165:reset 201:delay=2094265 225:reset 252:corrupt 255:stall " +
		"267:corrupt 282:reset 317:delay=999037 329:delay=2166575 356:reset 414:corrupt 417:reset " +
		"456:delay=1214162 474:reset 485:reset 493:trunc=1 528:reset 553:delay=2102664 585:reset ",
	"cli/23": "3:delay=419285 5:reset 11:reset 25:corrupt 39:reset 67:delay=2709803 73:reset 77:reset " +
		"92:delay=636747 95:delay=1721050 121:delay=1034162 163:trunc=163 166:trunc=9 171:delay=590540 " +
		"179:delay=1495202 216:reset 292:delay=298864 305:reset 315:delay=473176 340:reset " +
		"350:delay=1994800 391:trunc=1813 414:reset 416:delay=2262409 444:corrupt 483:reset 500:reset " +
		"512:reset 526:corrupt 556:delay=1106585 573:delay=1884884 584:delay=920569 592:delay=2869893 ",
}

func TestSeededInjectorDeterministicAndBounded(t *testing.T) {
	for _, seed := range []int64{3, 11, 23} {
		srv := seededTrace(NewSeededInjector(seed+1000, 0.04))
		cli := seededTrace(NewSeededInjector(seed, 0.06).DisableStalls())
		for side, got := range map[string]string{"srv": srv, "cli": cli} {
			key := fmt.Sprintf("%s/%d", side, seed)
			if want := seededGolden[key]; got != want {
				t.Errorf("%s trace\n got %q\nwant %q", key, got, want)
			}
		}
	}

	// At p=1 runs of injections stop at three, and DisableStalls turns
	// every stall into some other fault.
	on, off := NewSeededInjector(3, 1.0), NewSeededInjector(3, 1.0).DisableStalls()
	run, stalls := 0, 0
	for i := 0; i < 500; i++ {
		if f := on.Inject(OpWrite, 100); f == nil {
			run = 0
		} else if run++; run > 3 {
			t.Fatal("run of injections exceeded 3")
		} else if f.Stall {
			stalls++
		}
		if f := off.Inject(OpWrite, 100); f != nil && f.Stall {
			t.Fatal("DisableStalls still produced a stall")
		}
	}
	if stalls == 0 {
		t.Fatal("375 injections drew no stall: the flavour draw is not reached")
	}
}
