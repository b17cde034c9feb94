// Command benchjson converts `go test -bench` output into the
// BENCH_<pr>.json trajectory format from ROADMAP item 5c: a JSON object
// mapping benchmark name (with the -N GOMAXPROCS suffix stripped) to its
// ns/op and allocs/op, so per-PR performance claims are diffable in-repo
// instead of living only in CI logs.
//
// Usage:
//
//	go test -run=NONE -bench . -benchtime=1x -benchmem . | benchjson > BENCH_6.json
//
// Lines that are not benchmark result lines are ignored, so the raw
// `go test` stream can be piped in unfiltered. Custom b.ReportMetric
// units (replication_x, max_shard_nodes, ...) are carried through as
// extra keys when present. A benchmark run several times (-count=N, or
// several `go test` streams concatenated) is reported as the median of
// each metric over its runs.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result holds the per-benchmark numbers we track across PRs. Extra
// holds custom ReportMetric units keyed by unit name.
type result struct {
	NsOp     float64            `json:"ns_op"`
	AllocsOp float64            `json:"allocs_op"`
	Extra    map[string]float64 `json:"extra,omitempty"`
}

// parseLine decodes one `go test -bench` result line, e.g.
//
//	BenchmarkShardedSTA-8  1  721638 ns/op  1.014 replication_x  105 allocs/op
//
// returning ok=false for any line that is not a benchmark result.
func parseLine(line string) (name string, r result, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", result{}, false
	}
	name = f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the GOMAXPROCS suffix
		}
	}
	// f[1] is the iteration count: always a plain positive integer in
	// `go test -bench` output. Rejecting anything else keeps prose lines
	// that happen to start with "Benchmark..." out of the table.
	if iters, err := strconv.Atoi(f[1]); err != nil || iters <= 0 {
		return "", result{}, false
	}
	// The rest are value/unit pairs; custom b.ReportMetric units such as
	// replication_x ride in the same stream as ns/op and allocs/op.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", result{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsOp = v
		case "allocs/op":
			r.AllocsOp = v
		case "B/op", "MB/s":
			// tracked in CI logs but not part of the trajectory
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	return name, r, true
}

// median returns the median of xs (the mean of the two middle values for
// an even count). xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianResult folds one benchmark's runs into one result: the median of
// ns/op, of allocs/op and of each extra unit over the runs reporting it.
func medianResult(runs []result) result {
	ns := make([]float64, len(runs))
	allocs := make([]float64, len(runs))
	units := map[string]bool{}
	for i, r := range runs {
		ns[i], allocs[i] = r.NsOp, r.AllocsOp
		for u := range r.Extra {
			units[u] = true
		}
	}
	out := result{NsOp: median(ns), AllocsOp: median(allocs)}
	names := make([]string, 0, len(units))
	for u := range units {
		names = append(names, u)
	}
	sort.Strings(names)
	if len(names) > 0 {
		out.Extra = make(map[string]float64, len(names))
	}
	for _, u := range names {
		var vals []float64
		for _, r := range runs {
			if v, ok := r.Extra[u]; ok {
				vals = append(vals, v)
			}
		}
		out.Extra[u] = median(vals)
	}
	return out
}

// aggregate reads a `go test -bench` stream and returns one result per
// benchmark name: the median over every line reporting that benchmark.
func aggregate(in io.Reader) (map[string]result, error) {
	runs := make(map[string][]result)
	var order []string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if name, r, ok := parseLine(sc.Text()); ok {
			if _, seen := runs[name]; !seen {
				order = append(order, name)
			}
			runs[name] = append(runs[name], r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]result, len(order))
	for _, name := range order {
		out[name] = medianResult(runs[name])
	}
	return out, nil
}

func main() {
	out, err := aggregate(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(out) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines on stdin")
		os.Exit(1)
	}
	// Deterministic key order so consecutive runs diff cleanly.
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	for i, n := range names {
		enc, err := json.Marshal(out[n])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Fprintf(&b, "  %q: %s", n, enc)
		if i < len(names)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	os.Stdout.WriteString(b.String())
}
