package sta

import (
	"fmt"
	"math"
	"sync"

	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
)

// endpointCap is the extra load a timing endpoint puts on its driver
// (register D input cap ~ DFF).
const endpointCap = 1.1

// Analyzer packs everything about one (graph, library) pair that does not
// depend on the clock period or on arrival times: per-node output loads,
// output slews and delay increments. Loads and slews are functions of the
// graph structure alone, and because a node's output slew does not depend
// on its inputs' arrival, the slew term of every delay is static too — so
// one Analyze call reduces to a single forward max-plus pass over the CSR
// fanin array plus the endpoint slack loop. Construction costs one
// reference-style pass; every subsequent Analyze is allocation-light (only
// the Result slices) and, because each level of the CSR levelization only
// reads values from strictly lower levels, safely parallelizable level by
// level. The CSR view itself is fetched lazily from the graph's cache: an
// analyzer whose arrival vector was restored from the on-disk cache never
// pays the levelization unless a fresh forward pass is actually requested.
//
// An Analyzer is immutable after NewAnalyzer and safe for concurrent use.
type Analyzer struct {
	G   *bog.Graph
	Lib *liberty.PseudoLib

	load   []float64 // static per-node output load
	slew   []float64 // static per-node output slew
	delay  []float64 // per-node arrival increment (sources: absolute arrival)
	fanout []int32
}

// NewAnalyzer precomputes the period-independent timing state for g under
// lib. The floating-point accumulation order matches AnalyzeReference
// exactly so that results stay bit-identical.
func NewAnalyzer(g *bog.Graph, lib *liberty.PseudoLib) *Analyzer {
	n := len(g.Nodes)
	a := &Analyzer{
		G: g, Lib: lib,
		load:   make([]float64, n),
		slew:   make([]float64, n),
		delay:  make([]float64, n),
		fanout: g.FanoutCounts(),
	}
	// Loads: consumer input caps (in consumer-id order), endpoint caps,
	// then wire load — the reference accumulation order. Iterating the
	// node fanin slots directly visits edges in exactly the CSR fanin-array
	// order, so the float accumulation stays bit-identical.
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		cell := &lib.Cells[nd.Op]
		for j := 0; j < nd.NumFanin(); j++ {
			a.load[nd.Fanin[j]] += cell.InputCap
		}
	}
	for _, ep := range g.Endpoints {
		a.load[ep.D] += endpointCap
	}
	for i := range a.load {
		a.load[i] += lib.WireLoad * float64(a.fanout[i])
	}
	// Slews and delay increments. Operator slews depend only on loads, so
	// the worst fanin slew entering each delay is static as well.
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		worstSlew := 0.0
		for j := 0; j < nd.NumFanin(); j++ {
			if s := a.slew[nd.Fanin[j]]; s > worstSlew {
				worstSlew = s
			}
		}
		a.delay[i] = nodeDelay(lib, nd.Op, a.load[i], worstSlew)
		a.slew[i] = nodeSlew(lib, nd.Op, a.load[i])
	}
	return a
}

// nodeSlew and nodeDelay are the pseudo-cell timing model, shared by the
// analyzer's precomputation and the incremental session's recomputes so
// their bit-identity rests on one formula instead of two synchronized
// copies. Sources have no fanins, so their worstSlew is always 0.

func nodeSlew(lib *liberty.PseudoLib, op bog.Op, load float64) float64 {
	if op == bog.Const0 || op == bog.Const1 {
		return 0
	}
	cell := &lib.Cells[op]
	return cell.SlewBase + cell.SlewCoef*load
}

func nodeDelay(lib *liberty.PseudoLib, op bog.Op, load, worstSlew float64) float64 {
	cell := &lib.Cells[op]
	switch op {
	case bog.Const0, bog.Const1:
		return 0
	case bog.Input:
		return lib.InputAT + cell.DriveRes*load
	case bog.RegQ:
		return lib.ClkToQ + cell.DriveRes*load
	default:
		return cell.Intrinsic + cell.DriveRes*load + cell.SlewSens*worstSlew
	}
}

// State exposes the analyzer's period-independent per-node vectors for
// persistence (the engine's on-disk representation cache). The returned
// slices alias the analyzer's immutable state and must be treated as
// read-only.
func (a *Analyzer) State() (load, slew, delay []float64, fanout []int32) {
	return a.load, a.slew, a.delay, a.fanout
}

// NewAnalyzerFromState rebuilds an analyzer from vectors previously
// obtained with State, skipping every precomputation pass. All four
// vectors must cover len(g.Nodes) entries; the analyzer takes ownership of
// the slices. Callers are responsible for pairing the state with the same
// (graph, library) it was computed from — the engine's cache keys entries
// by a digest of both.
func NewAnalyzerFromState(g *bog.Graph, lib *liberty.PseudoLib, load, slew, delay []float64, fanout []int32) (*Analyzer, error) {
	n := len(g.Nodes)
	if len(load) != n || len(slew) != n || len(delay) != n || len(fanout) != n {
		return nil, fmt.Errorf("sta: state vectors cover %d/%d/%d/%d nodes, graph has %d",
			len(load), len(slew), len(delay), len(fanout), n)
	}
	return &Analyzer{G: g, Lib: lib, load: load, slew: slew, delay: delay, fanout: fanout}, nil
}

// Analyze runs pseudo-STA at the given clock period: a serial forward
// pass in topological id order.
func (a *Analyzer) Analyze(period float64) *Result {
	return a.AnalyzeJobs(period, 1)
}

// parallelLevelMin is the level width below which a level is processed
// serially: narrow levels cost less to compute than to hand out.
const parallelLevelMin = 256

// AnalyzeJobs runs pseudo-STA with up to jobs workers cooperating on each
// sufficiently wide level. Results are bit-identical for every jobs value:
// nodes within a level are independent, and each node's computation does
// not depend on how the level is chunked.
func (a *Analyzer) AnalyzeJobs(period float64, jobs int) *Result {
	return a.At(a.Arrivals(jobs), period)
}

// Arrivals runs the forward max-plus pass alone and returns the per-node
// arrival vector. Arrival times are period-free — only slack depends on
// the clock — so one Arrivals call can back any number of At
// materializations. The returned slice is bit-identical for every jobs
// value.
func (a *Analyzer) Arrivals(jobs int) []float64 {
	arr := make([]float64, len(a.G.Nodes))
	if jobs > 1 {
		a.forwardParallel(arr, jobs)
	} else {
		a.forwardSerial(arr)
	}
	return arr
}

// At materializes the Result for one clock period from a precomputed
// arrival vector (as returned by Arrivals): only the endpoint slack loop
// runs. The per-node vectors of the Result alias arr and the analyzer's
// immutable state — Results are shared read-only by contract (the engine
// already shares them across cache users), so no copies are made.
func (a *Analyzer) At(arr []float64, period float64) *Result {
	r := &Result{
		ClockPeriod: period,
		Arrival:     arr,
		Slew:        a.slew,
		Load:        a.load,
		Fanout:      a.fanout,
	}
	a.finish(r, period)
	return r
}

// AnalyzeBatch analyzes every clock period in periods with one shared
// forward pass: the arrival vector is computed once (with up to jobs
// workers) and each period only pays the endpoint slack loop. Each
// returned Result is bit-identical to an independent Analyze(periods[i])
// call; the per-node vectors are shared between the K Results, and the
// per-period endpoint vectors are carved out of two batch-wide backing
// arrays, so a K-period sweep costs three allocations instead of 3K+1.
func (a *Analyzer) AnalyzeBatch(periods []float64, jobs int) []*Result {
	arr := a.Arrivals(jobs)
	out := make([]*Result, len(periods))
	res := make([]Result, len(periods))
	ep := len(a.G.Endpoints)
	back := make([]float64, 2*ep*len(periods))
	for i, p := range periods {
		r := &res[i]
		r.ClockPeriod = p
		r.Arrival = arr
		r.Slew = a.slew
		r.Load = a.load
		r.Fanout = a.fanout
		r.EndpointAT, back = back[:ep:ep], back[ep:]
		r.Slack, back = back[:ep:ep], back[ep:]
		a.finish(r, p)
		out[i] = r
	}
	return out
}

// forwardSerial propagates arrivals over all nodes in topological order.
func (a *Analyzer) forwardSerial(arr []float64) {
	c := a.G.CSR()
	for i := range arr {
		worst := 0.0
		s, e := c.FaninStart[i], c.FaninStart[i+1]
		for _, f := range c.Fanin[s:e] {
			if arr[f] > worst {
				worst = arr[f]
			}
		}
		arr[i] = worst + a.delay[i]
	}
}

// forwardParallel propagates arrivals level by level, splitting wide
// levels across jobs goroutines.
func (a *Analyzer) forwardParallel(arr []float64, jobs int) {
	c := a.G.CSR()
	var wg sync.WaitGroup
	for l := 0; l < c.NumLevels(); l++ {
		nodes := c.LevelNodes[c.LevelStart[l]:c.LevelStart[l+1]]
		if len(nodes) < parallelLevelMin {
			a.forwardNodes(arr, nodes)
			continue
		}
		chunk := (len(nodes) + jobs - 1) / jobs
		for lo := 0; lo < len(nodes); lo += chunk {
			hi := lo + chunk
			if hi > len(nodes) {
				hi = len(nodes)
			}
			wg.Add(1)
			go func(sub []bog.NodeID) {
				defer wg.Done()
				a.forwardNodes(arr, sub)
			}(nodes[lo:hi])
		}
		wg.Wait()
	}
}

func (a *Analyzer) forwardNodes(arr []float64, nodes []bog.NodeID) {
	c := a.G.CSR()
	for _, i := range nodes {
		worst := 0.0
		for _, f := range c.Fanin[c.FaninStart[i]:c.FaninStart[i+1]] {
			if arr[f] > worst {
				worst = arr[f]
			}
		}
		arr[i] = worst + a.delay[i]
	}
}

// finish fills the endpoint arrivals, slacks, WNS and TNS.
func (a *Analyzer) finish(r *Result, period float64) {
	finishResult(a.G, a.Lib, r, period)
}

// Summary returns WNS and TNS at one clock period from a precomputed
// arrival vector without materializing a Result: the endpoint slack loop
// runs with nothing stored, so it allocates nothing. The pair is
// bit-identical to At(arr, period).WNS/TNS — both come from the same loop.
func (a *Analyzer) Summary(arr []float64, period float64) (wns, tns float64) {
	return endpointSlack(a.G, a.Lib, arr, period, nil, nil)
}

// finishResult fills a Result's endpoint arrivals, slacks, WNS and TNS; it
// is shared by the analyzer and the incremental session, so their Results
// are bit-identical for the same arrival vector. Pre-sized EndpointAT/Slack
// slices (AnalyzeBatch's batch-wide scratch) are reused; anything else is
// allocated fresh.
func finishResult(g *bog.Graph, lib *liberty.PseudoLib, r *Result, period float64) {
	if len(r.EndpointAT) != len(g.Endpoints) || len(r.Slack) != len(g.Endpoints) {
		r.EndpointAT = make([]float64, len(g.Endpoints))
		r.Slack = make([]float64, len(g.Endpoints))
	}
	r.WNS, r.TNS = endpointSlack(g, lib, r.Arrival, period, r.EndpointAT, r.Slack)
}

// endpointSlack is the one endpoint slack loop behind every WNS/TNS this
// package reports. TNS accumulates in endpoint order — the canonical order
// every bit-identity test pins. epAT and slack, when non-nil, receive the
// per-endpoint arrivals and slacks; Summary passes nil and stores nothing.
// A design without endpoints reports WNS = TNS = 0.
func endpointSlack(g *bog.Graph, lib *liberty.PseudoLib, arr []float64, period float64, epAT, slack []float64) (wns, tns float64) {
	if len(g.Endpoints) == 0 {
		return 0, 0
	}
	wns = math.Inf(1)
	for i, ep := range g.Endpoints {
		at := arr[ep.D]
		s := period - at - lib.Setup
		if epAT != nil {
			epAT[i] = at
			slack[i] = s
		}
		if s < wns {
			wns = s
		}
		if s < 0 {
			tns += s
		}
	}
	return wns, tns
}
