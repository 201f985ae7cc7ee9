// Command bench is the repository's one benchmark: four closed-loop,
// fixed-work workloads over the paper's pipeline (output files → input →
// core → sqldb → wire → query → output), every output checked against a
// plain-Go oracle. See README.md and ../BENCHMARK.json.
//
//	bash bench/run.sh --workload query_hot --seed 1 --seconds 12 --trace 0
//
// prints log lines and, as the last line of standard output, one JSON
// object: the end-to-end metrics with --trace 0, the per-layer metrics
// of a separate traced run with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the user+system CPU time of this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func main() {
	workloadName := flag.String("workload", "", "one of "+strings.Join(workloadNames, ", ")+"; empty runs all four")
	seed := flag.Int64("seed", 1, "corpus seed: equal seeds give equal inputs")
	seconds := flag.Float64("seconds", 12, "how long to keep running rounds")
	trace := flag.Int("trace", 0, "1: run traced and report the per-layer metrics")
	out := flag.String("out", "", "directory for trace-<workload>.jsonl (default .bench_build/out)")
	flag.Parse()

	names := workloadNames
	if *workloadName != "" {
		names = []string{*workloadName}
	}
	var err error
	for _, name := range names {
		if err == nil {
			err = run(name, *seed, *seconds, *trace != 0, *out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// buildDir holds everything the benchmark writes, below the current
// directory, the root of the checkout. The path stays relative: core
// stores each imported file's path in the database, and its length must
// not depend on where the checkout lies.
const buildDir = ".bench_build"

func run(name string, seed int64, seconds float64, trace bool, out string) error {
	e := env{seed: seed, sc: fullScale, dir: filepath.Join(buildDir, fmt.Sprintf("run-%s-%07d", name, os.Getpid()))}
	defer os.RemoveAll(e.dir)
	if out == "" {
		out = filepath.Join(buildDir, "out")
	}
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }

	var res *outcome
	var err error
	if trace {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		res, err = runTraced(name, e, seconds, filepath.Join(out, "trace-"+name+".jsonl"), logf)
	} else {
		res, err = runEndToEnd(name, e, seconds, logf)
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		logf("%-12s %-32s %14.4f %s", name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
