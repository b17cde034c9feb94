// Command perfbench is the repository's end-to-end benchmark of the
// resident timing service. It starts an in-process service.Service on a
// real loopback listener with the configuration cmd/rtltimerd builds from
// its default flags, drives one named workload through it as a closed loop
// of two HTTP clients, checks every answer, and prints each metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is the traced one, and the metrics are the per-layer ones. See README.md
// for why each workload exists and how to re-check a claim on a new seed.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload warm-mix --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workDir holds everything a run writes: cache directories and the span
// dump. It lives inside the checkout, next to the build output.
const workDir = ".bench_build/perfbench"

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	scratch, err := os.MkdirTemp(workDir, *workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := runConfig{
		seed:      *seed,
		duration:  time.Duration(*seconds * float64(time.Second)),
		scratch:   scratch,
		tracePath: filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed)),
	}
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, cfg)
	} else {
		res, err = runEndToEnd(w, cfg)
	}
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	printResult(res)
}

// runConfig is what every phase of a run shares.
type runConfig struct {
	seed      int64
	duration  time.Duration
	scratch   string // per-run directory for cache dirs, removed at exit
	tracePath string // where the traced run writes its spans
}

func workloadNames() []string { return sortedKeys(workloads) }

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printResult prints every metric on its own line, then the JSON result.
func printResult(res *result) {
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// gomaxprocs is the worker count cmd/rtltimerd defaults -jobs to.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
