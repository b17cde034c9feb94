package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"rtltimer/internal/engine"
	"rtltimer/internal/service"
)

// numClients is the closed loop's client count: rtltimerd's callers
// (editor plugins, opt-style exploration loops, CI scripts) each wait for
// a reply before sending the next request, and the benchmark box has two
// cores.
const numClients = 2

// setupReps is how many times a run sets the daemon up; setup_s is the
// median, and the last daemon serves the measured phase.
const setupReps = 7

// minRequests is the fewest requests a measured phase must complete, so
// that at least ten latency samples lie beyond p90.
const minRequests = 100

// minSliceRequests is the fewest requests a slice of a measured phase
// holds. A phase with fewer is reported as one slice: percentiles of a
// few hundred cold builds of mixed sizes are steadier over the whole
// phase than as a median of smaller slices.
const minSliceRequests = 500

// daemonConfig is the service.Config cmd/rtltimerd builds from its
// default flags; workloads add a cache dir and a memory budget.
func daemonConfig() service.Config {
	return service.Config{
		Jobs:        gomaxprocs(),
		Shards:      0,
		Seed:        1,
		QueueWait:   500 * time.Millisecond,
		MaxSessions: 1024,
		SessionTTL:  time.Hour,
	}
}

// daemon is one in-process service behind a loopback HTTP listener.
type daemon struct {
	svc    *service.Service
	srv    *http.Server
	base   string
	hc     *http.Client
	served chan error
}

func startDaemon(cfg service.Config) (*daemon, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	d := &daemon{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * numClients}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	resp, err := d.hc.Get(d.base + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the listener down, waits for Serve to return and closes the
// service (its session reaper included).
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	<-d.served
	d.hc.CloseIdleConnections()
	d.svc.Close()
}

// post sends one JSON request and returns the status and the full body.
func (d *daemon) post(path string, body []byte) (int, []byte, error) {
	resp, err := d.hc.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// postOK is post for set-up and replay requests, which must succeed.
func (d *daemon) postOK(path string, body []byte) ([]byte, error) {
	code, out, err := d.post(path, body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s answered %d: %s", path, code, bytes.TrimSpace(out))
	}
	return out, nil
}

// call is one request a client sends.
type call struct {
	path string
	body []byte
}

// client generates one closed-loop client's requests. next and done run
// outside the timed interval of each request: next builds the request,
// done checks the response and returns a non-nil error for a wrong
// answer.
type client interface {
	next() *call
	done(c *call, status int, body []byte) error
}

// loopStats is what one closed-loop phase measured.
type loopStats struct {
	lat       []time.Duration // per request
	doneAt    []time.Duration // per request: completion offset since the start
	attempted int64
	failed    int64 // non-200 answers and transport errors
	perPath   map[string]int64
	checkErrs []string
	elapsed   time.Duration
	samples   []procSample
}

// procSample is the process's CPU time, malloc count and live heap (as
// marked by the latest GC cycle) at one instant of a measured phase.
type procSample struct {
	at       time.Duration
	cpu      time.Duration
	mallocs  uint64
	heapLive uint64
}

// sampleIntervals is how many equal intervals the process is sampled at
// over a measured phase; slices are made of whole intervals.
const sampleIntervals = 40

// maxSlices bounds how many slices a measured phase is cut into.
const maxSlices = 10

func sampleProcess(start time.Time) procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	return procSample{at: time.Since(start), cpu: processCPU(), mallocs: ms.Mallocs, heapLive: live[0].Value.Uint64()}
}

// runLoop drives the clients as a closed loop for dur: each client sends
// its next request only after the previous answer arrived. With tr set,
// each request is also recorded as a root span.
func runLoop(d *daemon, cs []client, dur time.Duration, tr *tracer) *loopStats {
	type clientOut struct {
		lat       []time.Duration
		doneAt    []time.Duration
		attempted int64
		failed    int64
		perPath   map[string]int64
		errs      []string
	}
	outs := make([]clientOut, len(cs))
	runtime.GC()
	start := time.Now()
	deadline := start.Add(dur)
	samples := []procSample{sampleProcess(start)}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(dur / sampleIntervals)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if s := sampleProcess(start); s.at < dur {
					samples = append(samples, s)
				}
			case <-stop:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outs[i]
			o.perPath = map[string]int64{}
			for time.Now().Before(deadline) {
				c := cs[i].next()
				var sp *span
				if tr != nil {
					sp = tr.begin("request"+c.path, nil, tr.newRequest())
				}
				t0 := time.Now()
				status, body, err := d.post(c.path, c.body)
				t1 := time.Now()
				if sp != nil {
					tr.end(sp)
				}
				o.attempted++
				o.perPath[c.path]++
				o.lat = append(o.lat, t1.Sub(t0))
				o.doneAt = append(o.doneAt, t1.Sub(start))
				if err != nil {
					o.failed++
					o.errs = append(o.errs, fmt.Sprintf("%s: %v", c.path, err))
					continue
				}
				if status != http.StatusOK {
					o.failed++
					o.errs = append(o.errs, fmt.Sprintf("%s answered %d: %s", c.path, status, bytes.TrimSpace(body)))
				}
				if cerr := cs[i].done(c, status, body); cerr != nil {
					o.errs = append(o.errs, cerr.Error())
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-sampled
	st := &loopStats{elapsed: time.Since(start), perPath: map[string]int64{}}
	st.samples = append(samples, sampleProcess(start))
	for _, o := range outs {
		st.lat = append(st.lat, o.lat...)
		st.doneAt = append(st.doneAt, o.doneAt...)
		st.attempted += o.attempted
		st.failed += o.failed
		for p, n := range o.perPath {
			st.perPath[p] += n
		}
		st.checkErrs = append(st.checkErrs, o.errs...)
	}
	return st
}

// sliceMetrics are the end-to-end figures of one slice of a measured
// phase.
type sliceMetrics struct {
	p50, p90, rps, cpuPerReq, allocsPerReq float64
}

// sliced cuts the measured phase into up to maxSlices slices of whole
// sampling intervals, each holding at least minSliceRequests requests, and
// returns each slice's figures. A run reports the median over its slices,
// so a burst of interference from outside the process moves one slice,
// not the result.
func (ls *loopStats) sliced() []sliceMetrics {
	n := len(ls.samples) - 1
	k := max(1, min(maxSlices, n, int(ls.attempted)/minSliceRequests))
	var out []sliceMetrics
	for j := 0; j < k; j++ {
		a, b := ls.samples[j*n/k], ls.samples[(j+1)*n/k]
		var lat []time.Duration
		for i, at := range ls.doneAt {
			if (at >= a.at || j == 0) && (at < b.at || j == k-1) {
				lat = append(lat, ls.lat[i])
			}
		}
		if len(lat) == 0 {
			continue
		}
		sort.Slice(lat, func(x, y int) bool { return lat[x] < lat[y] })
		cnt := float64(len(lat))
		out = append(out, sliceMetrics{
			p50:          percentile(lat, 0.50),
			p90:          percentile(lat, 0.90),
			rps:          cnt / (b.at - a.at).Seconds(),
			cpuPerReq:    float64(b.cpu-a.cpu) / float64(time.Millisecond) / cnt,
			allocsPerReq: float64(b.mallocs-a.mallocs) / cnt,
		})
	}
	return out
}

// heapLiveMB is the median live heap over the phase's samples plus one
// reading after a forced GC at its end. A single end-of-phase reading
// depended on which cache entries happened to be resident at that
// instant (churn-reload's spread across seeds was 21%).
func (ls *loopStats) heapLiveMB() float64 {
	xs := make([]float64, 0, len(ls.samples)+1)
	for _, s := range ls.samples {
		xs = append(xs, float64(s.heapLive))
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	xs = append(xs, float64(ms.HeapAlloc))
	return median(xs) / (1 << 20)
}

// sliceMedian is the median over slices of one figure.
func sliceMedian(ss []sliceMetrics, f func(sliceMetrics) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

// percentile is the nearest-rank percentile of sorted durations, in ms.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p+0.999999) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median of a float slice (the slice is sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// setUp starts setupReps fresh daemons, each with its own cache dir, runs
// the workload's warm-up requests on each and keeps the last one. It
// returns that daemon and every set-up time in seconds.
func setUp(w workload, scratch string, reps int) (*daemon, []float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		dir := filepath.Join(scratch, fmt.Sprintf("cache%d", i))
		t0 := time.Now()
		d, err := startDaemon(w.config(dir))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if err := w.warm(d, i); err != nil {
			d.stop()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == reps-1 {
			return d, times, nil
		}
		d.stop()
		os.RemoveAll(dir)
	}
	return nil, nil, errors.New("set-up: no repetitions")
}

// statsDelta is the change of the engine counters over a phase.
func statsDelta(a, b engine.Stats) engine.Stats {
	return engine.Stats{
		Builds:     b.Builds - a.Builds,
		Hits:       b.Hits - a.Hits,
		Edits:      b.Edits - a.Edits,
		ShardEdits: b.ShardEdits - a.ShardEdits,
		DiskHits:   b.DiskHits - a.DiskHits,
		ShardHits:  b.ShardHits - a.ShardHits,
		Evictions:  b.Evictions - a.Evictions,
	}
}

// runEndToEnd is the untraced run: set-up, the oracle, the measured
// closed loop, then the checks.
func runEndToEnd(newW func() workload, cfg runConfig) (*result, error) {
	w := newW()
	if err := w.inputs(cfg.seed); err != nil {
		return nil, err
	}
	d, setups, err := setUp(w, cfg.scratch, setupReps)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if err := w.oracle(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	before := d.svc.Stats()
	ls := runLoop(d, w.clients(0), cfg.duration, nil)
	after := d.svc.Stats()
	errs := append(ls.checkErrs, w.check(statsDelta(before.Stats, after.Stats), ls)...)
	errs = append(errs, w.verify()...)
	if ls.attempted < minRequests {
		errs = append(errs, fmt.Sprintf("only %d requests completed, want at least %d", ls.attempted, minRequests))
	}
	report(ls, errs, after.Shed-before.Shed)
	ss := ls.sliced()
	res := &result{
		Correct:   len(errs) == 0,
		Attempted: ls.attempted,
		Failed:    ls.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"latency_p50_ms": {sliceMedian(ss, func(s sliceMetrics) float64 { return s.p50 }), "ms"},
			"latency_p90_ms": {sliceMedian(ss, func(s sliceMetrics) float64 { return s.p90 }), "ms"},
			"throughput_rps": {sliceMedian(ss, func(s sliceMetrics) float64 { return s.rps }), "1/s"},
			"cpu_ms_per_req": {sliceMedian(ss, func(s sliceMetrics) float64 { return s.cpuPerReq }), "ms"},
			"allocs_per_req": {sliceMedian(ss, func(s sliceMetrics) float64 { return s.allocsPerReq }), "count"},
			"heap_live_mb":   {ls.heapLiveMB(), "MB"},
		},
	}
	fmt.Printf("slices %d:", len(ss))
	for _, s := range ss {
		fmt.Printf(" %.0f/s p50 %.4g ms;", s.rps, s.p50)
	}
	fmt.Println()
	lat := append([]time.Duration(nil), ls.lat...)
	sort.Slice(lat, func(x, y int) bool { return lat[x] < lat[y] })
	fmt.Print("latency ms by percentile:")
	for p := 10; p < 100; p += 10 {
		fmt.Printf(" p%d %.4g", p, percentile(lat, float64(p)/100))
	}
	fmt.Println()
	return res, nil
}

// report prints the human-readable summary of a measured phase, including
// the failure ratio and the sample count behind the percentiles.
func report(ls *loopStats, errs []string, shed int64) {
	fmt.Printf("requests %d in %.2fs (", ls.attempted, ls.elapsed.Seconds())
	for i, p := range sortedKeys(ls.perPath) {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s %d", p, ls.perPath[p])
	}
	fmt.Printf("); latency samples %d, %d beyond p90\n", len(ls.lat), len(ls.lat)-int(float64(len(ls.lat))*0.9+0.999999))
	ratio := 0.0
	if ls.attempted > 0 {
		ratio = float64(ls.failed) / float64(ls.attempted)
	}
	fmt.Printf("failed_ratio %.6f (%d of %d; %d shed)\n", ratio, ls.failed, ls.attempted, shed)
	for i, e := range errs {
		if i == 10 {
			fmt.Printf("check: ... %d more\n", len(errs)-10)
			break
		}
		fmt.Printf("check FAILED: %s\n", e)
	}
	if len(errs) == 0 {
		fmt.Println("checks: all passed")
	}
}
