// Command mtasts-bench is the repository's benchmark: it drives the
// scan service over real loopback sockets, from a submitted domain list
// to classified results durably stored and streamed back out over the
// API, checks every result against an oracle, and prints each metric of
// BENCHMARK.json by name with its unit (bench/README.md).
//
// Usage:
//
//	mtasts-bench -workload census|selfhosted|hosted|service_jobs
//	             [-seed 1] [-seconds 15] [-trace 0|1|both] [-scale 0.1]
//	             [-workdir bench/out] [-out result.json]
//	mtasts-bench -compare a.json b.json
//
// With -trace 0 only the end-to-end metrics are measured (tracing off),
// with -trace 1 only the per-layer metrics (traced repetition plus the
// isolated ledger); the default measures both. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics. The exit code is 1 when any result disagrees with the oracle.
//
// -role substrate is internal: the driver re-executes this binary to
// serve the loopback Internet from a child process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"

	"github.com/netsecurelab/mtasts/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: census, selfhosted, hosted or service_jobs")
	seed := flag.Int64("seed", bench.DefaultSeed, "seed for population, defect placement, job slicing and ledger sampling")
	seconds := flag.Float64("seconds", 15, "how long each phase keeps measuring")
	trace := flag.String("trace", "both", "0: end-to-end metrics only; 1: per-layer metrics only; both")
	scale := flag.Float64("scale", bench.DefaultScale, "common factor applied to every full-size population")
	workDir := flag.String("workdir", "bench/out", "directory for store directories and trace-<workload>.jsonl")
	out := flag.String("out", "", "also write the result JSON to this file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two -out files: mtasts-bench -compare a.json b.json")
	role := flag.String("role", "driver", "internal: \"substrate\" serves the loopback Internet for a driver")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: mtasts-bench -compare a.json b.json")
			return 2
		}
		ok, err := bench.Compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "mtasts-bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *role == "substrate" {
		if err := bench.ServeSubstrate(*workload, *seed, *scale, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mtasts-bench substrate:", err)
			return 1
		}
		return 0
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fmt.Fprintln(os.Stderr, "mtasts-bench: -trace must be 0, 1 or both")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtasts-bench:", err)
		return 2
	}
	res, err := bench.Run(bench.Config{
		Workload: *workload,
		Seed:     *seed,
		Scale:    *scale,
		Seconds:  *seconds,
		EndToEnd: *trace != "1",
		Layers:   *trace != "0",
		WorkDir:  *workDir,
		Substrate: func(workload string, seed int64, scale float64) ([]string, []string) {
			return []string{exe, "-role", "substrate", "-workload", workload,
				"-seed", strconv.FormatInt(seed, 10), "-scale", strconv.FormatFloat(scale, 'g', -1, 64)}, nil
		},
		Log: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtasts-bench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtasts-bench:", err)
		return 2
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mtasts-bench:", err)
			return 2
		}
	}
	// The harness reads the last line of standard output.
	report, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtasts-bench:", err)
		return 2
	}
	fmt.Println(string(report))
	if !res.Correct {
		return 1
	}
	return 0
}
