// Command dtperf is the repository's wall-clock benchmark: four
// workloads, the end-to-end metrics a user of the system sees, and a
// traced pass that explains them layer by layer. See bench/README.md.
//
//	dtperf -workload all -seed 1 -out out            every workload, end-to-end metrics
//	dtperf -workload all -seed 1 -trace 1 -out out   the per-layer pass, writes trace-*.json
//	dtperf -compare outA outB                        diff two result sets against the bounds
//
// The benchmark driver calls it (through bench/run.sh) as
//
//	dtperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output.
package main

import (
	"flag"
	"fmt"
	"os"

	"dualtable/bench"
)

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", bench.RunSeconds, "how long the measured phase of an end-to-end run lasts")
	trace := flag.Int("trace", 0, "1 runs the per-layer traced pass instead of the end-to-end run")
	scale := flag.String("scale", "full", "full, or tiny for a smoke run")
	out := flag.String("out", "", "directory for result and trace files (none when empty)")
	compare := flag.Bool("compare", false, "compare the two result directories given as arguments")
	force := flag.Bool("force", false, "with -compare: compare despite differing machine fingerprint or seed")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fail(2, "usage: dtperf -compare [-force] <dir A> <dir B>")
		}
		rep, err := bench.Compare(flag.Arg(0), flag.Arg(1), *force)
		if err != nil {
			fail(2, err.Error())
		}
		rep.Print(os.Stdout)
		if !rep.OK() {
			os.Exit(1)
		}
		return
	}

	sc := bench.Full
	switch *scale {
	case "full":
	case "tiny":
		sc = bench.Tiny
	default:
		fail(2, "unknown -scale "+*scale)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range bench.Workloads() {
			names = append(names, w.Name())
		}
	}
	for _, name := range names {
		w := bench.Workload(name)
		if w == nil {
			fail(2, "unknown workload "+name)
		}
		res, tf, err := bench.Run(w, *seed, *seconds, sc, *trace != 0)
		if err != nil {
			fail(1, err.Error())
		}
		res.Print(os.Stdout)
		if tf != nil {
			tf.Print(os.Stdout)
		}
		if *out != "" {
			if err := res.Save(*out); err != nil {
				fail(1, err.Error())
			}
			if tf != nil {
				if err := tf.Save(*out); err != nil {
					fail(1, err.Error())
				}
			}
		}
		// The driver runs one workload per process and reads the last
		// line; with several workloads each gets its line. A run with
		// failed ops still exits 0: the line says so.
		fmt.Println(res.ContractLine())
	}
}

func fail(code int, msg string) {
	fmt.Fprintln(os.Stderr, "dtperf:", msg)
	os.Exit(code)
}
