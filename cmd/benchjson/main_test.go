package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseLine is table-driven over the line shapes the BENCH trajectory
// has to survive: plain -benchmem lines, custom b.ReportMetric units
// (replication_x, graph_nodes, ...), scientific-notation values,
// GOMAXPROCS-suffix stripping, and the noise go test interleaves with
// results. Guard rail for adding more custom metrics (ROADMAP 5c).
func TestParseLine(t *testing.T) {
	tests := []struct {
		desc  string
		line  string
		ok    bool
		name  string
		ns    float64
		alloc float64
		extra map[string]float64
	}{
		{
			desc:  "plain benchmem line",
			line:  "BenchmarkIncrementalSTA-8   \t 500\t  21042 ns/op\t 1024 B/op\t 12 allocs/op",
			ok:    true,
			name:  "BenchmarkIncrementalSTA",
			ns:    21042,
			alloc: 12,
		},
		{
			desc:  "replication_x custom metric between ns/op and memstats",
			line:  "BenchmarkShardedSTA-8  \t 1\t  721638 ns/op\t 21166 graph_nodes\t 1.014 replication_x\t 1215248 B/op\t 105 allocs/op",
			ok:    true,
			name:  "BenchmarkShardedSTA",
			ns:    721638,
			alloc: 105,
			extra: map[string]float64{"replication_x": 1.014, "graph_nodes": 21166},
		},
		{
			desc:  "custom metric only, no -benchmem",
			line:  "BenchmarkShardedSTAGreedy-8 1 950000 ns/op 2.95 replication_x",
			ok:    true,
			name:  "BenchmarkShardedSTAGreedy",
			ns:    950000,
			extra: map[string]float64{"replication_x": 2.95},
		},
		{
			desc: "scientific-notation value",
			line: "BenchmarkEngineColdBuild-8 1 1.21e+09 ns/op 3 allocs/op",
			ok:   true, name: "BenchmarkEngineColdBuild", ns: 1.21e+09, alloc: 3,
		},
		{
			desc: "no GOMAXPROCS suffix (single-core runner)",
			line: "BenchmarkColdBuild 1 100 ns/op 0 allocs/op",
			ok:   true, name: "BenchmarkColdBuild", ns: 100,
		},
		{
			desc: "non-numeric dash suffix survives",
			line: "BenchmarkFoo-bar 1 100 ns/op 0 allocs/op",
			ok:   true, name: "BenchmarkFoo-bar", ns: 100,
		},
		{
			desc: "trailing value without unit is dropped, pairs kept",
			line: "BenchmarkOdd-8 1 42 ns/op 7",
			ok:   true, name: "BenchmarkOdd", ns: 42,
		},
		{desc: "goos header", line: "goos: linux", ok: false},
		{desc: "pkg header", line: "pkg: rtltimer", ok: false},
		{desc: "PASS footer", line: "PASS", ok: false},
		{desc: "ok footer", line: "ok  \trtltimer\t0.064s", ok: false},
		{desc: "bad value", line: "BenchmarkBroken-8 1 notanumber ns/op", ok: false},
		{desc: "non-integer iteration count", line: "Benchmark results were 3 ns/op overall today", ok: false},
		{desc: "empty", line: "", ok: false},
		{desc: "name-only line (verbose logging split)", line: "BenchmarkShardedSTA", ok: false},
	}
	for _, tc := range tests {
		name, r, ok := parseLine(tc.line)
		if ok != tc.ok {
			t.Errorf("%s: ok=%v, want %v (line %q)", tc.desc, ok, tc.ok, tc.line)
			continue
		}
		if !ok {
			continue
		}
		if name != tc.name {
			t.Errorf("%s: name=%q, want %q", tc.desc, name, tc.name)
		}
		if r.NsOp != tc.ns || r.AllocsOp != tc.alloc {
			t.Errorf("%s: ns/op=%v allocs/op=%v, want %v/%v", tc.desc, r.NsOp, r.AllocsOp, tc.ns, tc.alloc)
		}
		if !reflect.DeepEqual(r.Extra, tc.extra) && !(len(r.Extra) == 0 && len(tc.extra) == 0) {
			t.Errorf("%s: extra=%v, want %v", tc.desc, r.Extra, tc.extra)
		}
		if _, leaked := r.Extra["B/op"]; leaked {
			t.Errorf("%s: B/op leaked into extra metrics", tc.desc)
		}
	}
}

// TestAggregateMedianOfRuns: under -count=3 each benchmark prints three
// lines; the table must carry the median of every metric (not the last
// line), with extras folded over the runs that report them.
func TestAggregateMedianOfRuns(t *testing.T) {
	stream := strings.Join([]string{
		"goos: linux",
		"BenchmarkDaemonWarmQuery-2   200   91000 ns/op   5000 B/op   130 allocs/op",
		"BenchmarkShardedSTA-2   1   700 ns/op   1.2 replication_x   105 allocs/op",
		"BenchmarkDaemonWarmQuery-2   200   85000 ns/op   5000 B/op   128 allocs/op",
		"BenchmarkShardedSTA-2   1   900 ns/op   1.0 replication_x   107 allocs/op",
		"BenchmarkDaemonWarmQuery-2   200   300000 ns/op   5000 B/op   129 allocs/op",
		"BenchmarkShardedSTA-2   1   800 ns/op   1.1 replication_x   106 allocs/op",
		"BenchmarkEven-2   1   10 ns/op   1 allocs/op",
		"BenchmarkEven-2   1   20 ns/op   2 allocs/op",
		"PASS",
	}, "\n")
	got, err := aggregate(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]result{
		"BenchmarkDaemonWarmQuery": {NsOp: 91000, AllocsOp: 129},
		"BenchmarkShardedSTA":      {NsOp: 800, AllocsOp: 106, Extra: map[string]float64{"replication_x": 1.1}},
		"BenchmarkEven":            {NsOp: 15, AllocsOp: 1.5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregate = %+v, want %+v", got, want)
	}
}
