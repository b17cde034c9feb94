package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/elab"
	"rtltimer/internal/engine"
	"rtltimer/internal/features"
	"rtltimer/internal/liberty"
	"rtltimer/internal/part"
	"rtltimer/internal/service"
	"rtltimer/internal/sta"
	"rtltimer/internal/verilog"
)

// span is one timed call at a layer boundary. Spans of one replayed
// request share Req; Parent is the span whose cost this one explains.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's trace epoch
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []*span
	nextID  int64
	nextReq int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newRequest() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextReq++
	return t.nextReq
}

func (t *tracer) begin(name string, parent *span, req int64) *span {
	t.mu.Lock()
	t.nextID++
	s := &span{ID: t.nextID, Req: req, Name: name}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.Start = int64(time.Since(t.epoch))
	return s
}

func (t *tracer) end(s *span) { s.End = int64(time.Since(t.epoch)) }

// timed records fn as a span under parent and returns its duration.
func (t *tracer) timed(name string, parent *span, fn func()) time.Duration {
	s := t.begin(name, parent, parent.Req)
	fn()
	t.end(s)
	return s.dur()
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reconcileTolerance is how far a parent's children may over-account for
// it: the children of every reconciled parent must sum to at most
// (1 + reconcileTolerance) times the parent, summed over the run. A
// parent's self time is its duration minus its children's durations;
// most children are replayed right after the parent call through the
// layer's public functions, because the calls they stand for happen
// inside code the benchmark cannot instrument.
const reconcileTolerance = 0.25

// reconciledParents are the spans whose children should explain them.
var reconciledParents = []string{
	"service.http", "service.Eval", "service.Sweep", "service.Fmax",
	"engine.cold_eval", "features.extract", "engine.reload", "engine.derive_full",
}

// reconcile returns, per reconciled parent name, the share of the parent
// time its children account for (summed over all instances).
func (t *tracer) reconcile() map[string]float64 {
	child := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	parentSum := map[string]time.Duration{}
	childSum := map[string]time.Duration{}
	for _, s := range t.spans {
		parentSum[s.Name] += s.dur()
		childSum[s.Name] += child[s.ID]
	}
	out := map[string]float64{}
	for _, name := range reconciledParents {
		if parentSum[name] > 0 {
			out[name] = float64(childSum[name]) / float64(parentSum[name])
		}
	}
	return out
}

// timingStore wraps the disk tier's Store and records every Get and Put
// as a span under the current parent.
type timingStore struct {
	inner  engine.Store
	tr     *tracer
	parent *span

	mu       sync.Mutex
	putBytes int64
	getBytes int64
	got      [][]byte // payloads read, for the decode replay
}

func (s *timingStore) Get(name string) ([]byte, error) {
	sp := s.tr.begin("engine.store_get", s.parent, s.parent.Req)
	data, err := s.inner.Get(name)
	s.tr.end(sp)
	if err == nil {
		s.mu.Lock()
		s.getBytes += int64(len(data))
		s.got = append(s.got, data)
		s.mu.Unlock()
	}
	return data, err
}

func (s *timingStore) Put(name string, payload []byte) error {
	sp := s.tr.begin("engine.store_put", s.parent, s.parent.Req)
	err := s.inner.Put(name, payload)
	s.tr.end(sp)
	s.mu.Lock()
	s.putBytes += int64(len(payload))
	s.mu.Unlock()
	return err
}

func (s *timingStore) List() ([]string, error)  { return s.inner.List() }
func (s *timingStore) Delete(name string) error { return s.inner.Delete(name) }

// ladder replays sampled requests through each layer's public functions
// and collects one value per replayed request for every layer metric.
type ladder struct {
	tr   *tracer
	d    *daemon
	lib  *liberty.PseudoLib
	dir  string
	rng  *rand.Rand
	n    int
	vals map[string][]float64
}

func (l *ladder) add(name string, v float64) { l.vals[name] = append(l.vals[name], v) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceSweep is the sweep the warm ladder replays.
const traceSweep = "0.3:1.5:9"

// round replays one sampled request on every ladder.
func (l *ladder) round(ref designRef, period float64, v bog.Variant) error {
	l.n++
	if err := l.warmLadder(ref, period); err != nil {
		return fmt.Errorf("warm ladder %s: %w", ref.name, err)
	}
	base, err := l.coldLadder(ref)
	if err != nil {
		return fmt.Errorf("cold ladder %s: %w", ref.name, err)
	}
	if err := l.reloadLadder(base); err != nil {
		return fmt.Errorf("reload ladder %s: %w", ref.name, err)
	}
	if err := l.editLadder(ref, v, base); err != nil {
		return fmt.Errorf("edit ladder %s: %w", ref.name, err)
	}
	return nil
}

// warmLadder times one resident /eval, /sweep and /fmax of the design:
// the HTTP round trip, the direct Service call, and its children.
func (l *ladder) warmLadder(ref designRef, period float64) error {
	ctx := context.Background()
	svc := l.d.svc
	eval := service.EvalRequest{Design: ref.wire(), Period: period}
	body := mustJSON(eval)
	// Make the design resident first: the ladder times the warm path.
	if _, err := l.d.postOK("/eval", body); err != nil {
		return err
	}
	req := l.tr.newRequest()
	root := l.tr.begin("service.http", nil, req)
	_, err := l.d.postOK("/eval", body)
	l.tr.end(root)
	if err != nil {
		return err
	}
	ev := l.tr.begin("service.Eval", root, req)
	resp, err := svc.Eval(ctx, eval)
	l.tr.end(ev)
	if err != nil {
		return err
	}
	enc := l.tr.timed("service.json_encode", root, func() {
		var b bytes.Buffer
		e := json.NewEncoder(&b)
		e.SetEscapeHTML(false)
		e.Encode(resp)
	})
	l.add("service.json_encode_us", us(enc))
	l.add("service.http_self_us", us(root.dur()-ev.dur()-enc))

	reps, children, err := l.lookupChildren(ev, ref)
	if err != nil {
		return err
	}
	at := l.tr.timed("sta.at", ev, func() {
		for _, v := range bog.Variants() {
			reps[v].At(period)
		}
	})
	l.add("sta.at_us", us(at))
	l.add("service.eval_self_us", us(ev.dur()-children-at))

	sw := l.tr.begin("service.Sweep", nil, l.tr.newRequest())
	if _, err := svc.Sweep(ctx, service.SweepRequest{Design: ref.wire(), Sweep: traceSweep}); err != nil {
		return err
	}
	l.tr.end(sw)
	if _, _, err := l.lookupChildren(sw, ref); err != nil {
		return err
	}
	periods, _ := service.ParseSweep(traceSweep)
	l.add("service.render_sweep_us", us(l.tr.timed("service.render_sweep", sw, func() {
		var b strings.Builder
		service.RenderSweep(&b, ref.name, reps, periods)
	})))

	fm := l.tr.begin("service.Fmax", nil, l.tr.newRequest())
	if _, err := svc.Fmax(ctx, service.FmaxRequest{Design: ref.wire()}); err != nil {
		return err
	}
	l.tr.end(fm)
	if _, _, err := l.lookupChildren(fm, ref); err != nil {
		return err
	}
	l.add("service.fmax_search_us", us(l.tr.timed("service.fmax_search", fm, func() {
		for _, v := range bog.Variants() {
			service.FmaxSearch(reps[v])
		}
	})))
	l.tr.timed("service.render_fmax", fm, func() {
		var b strings.Builder
		service.RenderFmax(&b, ref.name, reps)
	})
	return nil
}

// lookupChildren replays the resolve path every warm query shares under
// parent: regenerate the corpus source (bench designs only), tag it, and
// look the four variants up in the resident engine. It returns the reps
// and the children's total time.
func (l *ladder) lookupChildren(parent *span, ref designRef) (map[bog.Variant]*engine.RepResult, time.Duration, error) {
	var total time.Duration
	src := ref.src
	if ref.bench {
		d := l.tr.timed("designs.generate", parent, func() { src = designs.Generate(ref.spec) })
		total += d
		if parent.Name == "service.Eval" {
			l.add("designs.generate_us", us(d))
		}
	} else if parent.Name == "service.Eval" {
		// Inline sources skip the generator; it is timed on the revision's
		// spec outside the reconciled tree, so the metric exists on every
		// workload.
		gen := l.tr.begin("designs.generate", nil, parent.Req)
		designs.Generate(ref.spec)
		l.tr.end(gen)
		l.add("designs.generate_us", us(gen.dur()))
	}
	var tag string
	d := l.tr.timed("engine.design_tag", parent, func() { tag = engine.DesignTag(ref.name, src) })
	total += d
	reps := map[bog.Variant]*engine.RepResult{}
	var err error
	lk := l.tr.timed("engine.lookup", parent, func() {
		for _, v := range bog.Variants() {
			var rr *engine.RepResult
			if rr, err = l.d.svc.Engine().EvalRepCtx(context.Background(), engine.Key{Design: tag, Variant: v}, l.lib, engine.LazyDesign(src)); err != nil {
				return
			}
			reps[v] = rr
		}
	})
	total += lk
	if parent.Name == "service.Eval" {
		l.add("engine.design_tag_us", us(d))
		l.add("engine.lookup_us", us(lk))
	}
	return reps, total, err
}

// coldLadder builds a fresh revision of the design on a private
// single-worker monolithic engine whose disk tier is timed, then replays
// the build's layers one by one. It returns the private base reps for the
// reload and edit ladders.
func (l *ladder) coldLadder(ref designRef) (*privateBase, error) {
	rev := ref
	rev.bench = false
	rev.name = fmt.Sprintf("%s_trace%d", ref.name, l.n)
	rev.src = ref.src + fmt.Sprintf("\n// trace revision %d\n", l.n)
	dir := filepath.Join(l.dir, fmt.Sprintf("cold%d", l.n))
	root := l.tr.begin("engine.cold_eval", nil, l.tr.newRequest())
	ts := &timingStore{inner: engine.NewDirStore(dir), tr: l.tr, parent: root}
	eng := engine.New(1)
	eng.SetShards(1)
	eng.SetCacheStore(engine.NewRetryStore(ts))
	tag := engine.DesignTag(rev.name, rev.src)
	lazy := engine.LazyDesign(rev.src)
	reps := map[bog.Variant]*engine.RepResult{}
	for _, v := range bog.Variants() {
		rr, err := eng.EvalRepCtx(context.Background(), engine.Key{Design: tag, Variant: v}, l.lib, lazy)
		if err != nil {
			return nil, err
		}
		reps[v] = rr
	}
	l.tr.end(root)
	if st := eng.Stats(); st.Builds != 4 || st.DiskWrites != 4 {
		return nil, fmt.Errorf("private cold engine made %d builds and %d disk writes, want 4 and 4", st.Builds, st.DiskWrites)
	}

	var parsed *verilog.Source
	var d *elab.Design
	var err error
	l.add("verilog.parse_ms", ms(l.tr.timed("verilog.parse", root, func() { parsed, err = verilog.Parse(rev.src) })))
	if err != nil {
		return nil, err
	}
	l.add("elab.elaborate_ms", ms(l.tr.timed("elab.elaborate", root, func() { d, err = elab.Elaborate(parsed) })))
	if err != nil {
		return nil, err
	}
	var build, analyzer, forward, extract, cones, partition time.Duration
	nodes := 0
	for _, v := range bog.Variants() {
		var g *bog.Graph
		build += l.tr.timed("bog.build", root, func() { g, err = bog.Build(d, v) })
		if err != nil {
			return nil, err
		}
		nodes += g.NumNodes()
		var an *sta.Analyzer
		analyzer += l.tr.timed("sta.analyzer", root, func() { an = sta.NewAnalyzer(g, l.lib) })
		var arr []float64
		forward += l.tr.timed("sta.forward", root, func() { arr = an.Arrivals(1) })
		ex := l.tr.begin("features.extract", root, root.Req)
		features.NewExtractor(g, an.At(arr, 0))
		l.tr.end(ex)
		extract += ex.dur()
		cones += l.tr.timed("sta.input_cone", ex, func() {
			for ep := range g.Endpoints {
				sta.InputCone(g, ep)
			}
		})
		// The daemon partitions when its automatic policy asks for more
		// than one shard; the private engine above is monolithic, so the
		// partition is timed on its own, outside the reconciled tree.
		if k := min(part.Auto(g.SeqNodes()), gomaxprocs()); k > 1 {
			ps := l.tr.begin("part.partition", nil, root.Req)
			_, err = part.New(g, k)
			l.tr.end(ps)
			partition += ps.dur()
			if err != nil {
				return nil, err
			}
		}
	}
	put := l.tr.childTime(root, "engine.store_put")
	l.add("bog.build_ms", ms(build))
	l.add("bog.nodes", float64(nodes))
	l.add("sta.analyzer_ms", ms(analyzer))
	l.add("sta.forward_ms", ms(forward))
	l.add("features.extract_ms", ms(extract))
	l.add("sta.input_cone_ms", ms(cones))
	l.add("part.partition_ms", ms(partition))
	l.add("engine.store_put_ms", ms(put))
	l.add("engine.store_put_bytes", float64(ts.putBytes))
	l.add("engine.cold_eval_ms", ms(root.dur()))
	l.add("engine.cold_self_ms", ms(root.dur()-l.tr.childTime(root, "")))
	return &privateBase{dir: dir, tag: tag, reps: reps}, nil
}

// privateBase is the cold ladder's monolithic build of one revision.
type privateBase struct {
	dir  string
	tag  string
	reps map[bog.Variant]*engine.RepResult
}

// noSource fails a reload that misses the disk tier.
func noSource() (*elab.Design, error) { return nil, errors.New("reload missed the disk tier") }

// reloadLadder loads the revision the cold ladder wrote back from disk on
// a fresh private engine, then replays the graph decode.
func (l *ladder) reloadLadder(b *privateBase) error {
	root := l.tr.begin("engine.reload", nil, l.tr.newRequest())
	ts := &timingStore{inner: engine.NewDirStore(b.dir), tr: l.tr, parent: root}
	eng := engine.New(1)
	eng.SetShards(1)
	eng.SetCacheStore(engine.NewRetryStore(ts))
	for _, v := range bog.Variants() {
		if _, err := eng.EvalRepCtx(context.Background(), engine.Key{Design: b.tag, Variant: v}, l.lib, noSource); err != nil {
			return err
		}
	}
	l.tr.end(root)
	if st := eng.Stats(); st.DiskHits != 4 || st.Builds != 0 {
		return fmt.Errorf("reload made %d disk hits and %d builds, want 4 and 0", st.DiskHits, st.Builds)
	}
	var unmarshal time.Duration
	for _, data := range ts.got {
		// Entry layout (engine/diskcache.go): magic, version, graph length,
		// then the bog graph blob.
		if len(data) < 12 {
			return errors.New("short cache entry")
		}
		n := binary.LittleEndian.Uint32(data[8:])
		if uint64(n) > uint64(len(data)-12) {
			return errors.New("cache entry graph length out of range")
		}
		var err error
		unmarshal += l.tr.timed("bog.unmarshal", root, func() { _, err = bog.UnmarshalGraph(data[12 : 12+n]) })
		if err != nil {
			return err
		}
	}
	l.add("engine.reload_ms", ms(root.dur()))
	l.add("engine.store_get_ms", ms(l.tr.childTime(root, "engine.store_get")))
	l.add("engine.store_get_bytes", float64(ts.getBytes))
	l.add("bog.unmarshal_ms", ms(unmarshal))
	return nil
}

// editLadder derives one seeded edit batch from the daemon's resident base
// (detached, so it always recomputes, on whichever path the engine picks)
// and from the private monolithic base, whose full-graph derivation is
// replayed step by step.
func (l *ladder) editLadder(ref designRef, v bog.Variant, b *privateBase) error {
	ctx := context.Background()
	reps, err := service.BuildSweepReps(ctx, l.d.svc.Engine(), ref.name, ref.src)
	if err != nil {
		return err
	}
	head := reps[v]
	delta := editBatch(head.Graph, l.rng)
	root := l.tr.begin("engine.edit", nil, l.tr.newRequest())
	l.add("engine.edit_key_us", us(l.tr.timed("engine.edit_key", root, func() {
		engine.EditKey(engine.Key{Design: engine.DesignTag(ref.name, ref.src), Variant: v}, delta)
	})))
	l.add("engine.derive_ms", ms(l.tr.timed("engine.derive", root, func() { _, err = head.Detached().EditCtx(ctx, delta) })))
	l.tr.end(root)
	if err != nil {
		return err
	}

	base := b.reps[v]
	full := l.tr.begin("engine.derive_full", nil, l.tr.newRequest())
	_, err = base.Detached().EditCtx(ctx, delta)
	l.tr.end(full)
	if err != nil {
		return err
	}
	var g2 *bog.Graph
	l.add("bog.clone_ms", ms(l.tr.timed("bog.clone", full, func() { g2 = base.Graph.Clone() })))
	load, slew, delay, _ := base.An.State()
	var inc *sta.Incremental
	l.add("sta.incremental_init_ms", ms(l.tr.timed("sta.incremental_init", full, func() {
		inc, err = sta.NewIncrementalFromState(g2, l.lib, load, slew, delay, base.Arrival)
	})))
	if err != nil {
		return err
	}
	l.add("sta.apply_us", us(l.tr.timed("sta.apply", full, func() { _, err = inc.Apply(delta) })))
	if err != nil {
		return err
	}
	l.add("sta.nodes_retimed_per_edit", float64(inc.Recomputed()))
	var an *sta.Analyzer
	var arr []float64
	l.add("sta.snapshot_ms", ms(l.tr.timed("sta.snapshot", full, func() { an, arr = inc.Snapshot() })))
	l.add("features.edit_extract_ms", ms(l.tr.timed("features.edit_extract", full, func() {
		features.NewExtractor(g2, an.At(arr, 0))
	})))
	l.add("engine.derive_full_ms", ms(full.dur()))
	return nil
}

// childTime is the summed duration of parent's direct children named
// name, or of all of them when name is empty.
func (t *tracer) childTime(parent *span, name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total time.Duration
	for _, s := range t.spans {
		if s.Parent == parent.ID && (name == "" || s.Name == name) {
			total += s.dur()
		}
	}
	return total
}

// perLayerUnits names every per-layer metric the traced run reports, with
// its unit. BENCHMARK.json lists the same names.
var perLayerUnits = map[string]string{
	"designs.generate_us":        "us",
	"engine.design_tag_us":       "us",
	"service.eval_self_us":       "us",
	"engine.lookup_us":           "us",
	"sta.at_us":                  "us",
	"service.render_sweep_us":    "us",
	"service.fmax_search_us":     "us",
	"service.http_self_us":       "us",
	"service.json_encode_us":     "us",
	"verilog.parse_ms":           "ms",
	"elab.elaborate_ms":          "ms",
	"bog.build_ms":               "ms",
	"bog.nodes":                  "count",
	"part.partition_ms":          "ms",
	"sta.analyzer_ms":            "ms",
	"sta.forward_ms":             "ms",
	"features.extract_ms":        "ms",
	"sta.input_cone_ms":          "ms",
	"engine.store_put_ms":        "ms",
	"engine.store_put_bytes":     "bytes",
	"engine.cold_eval_ms":        "ms",
	"engine.cold_self_ms":        "ms",
	"engine.edit_key_us":         "us",
	"engine.derive_ms":           "ms",
	"engine.derive_full_ms":      "ms",
	"bog.clone_ms":               "ms",
	"sta.incremental_init_ms":    "ms",
	"sta.apply_us":               "us",
	"sta.snapshot_ms":            "ms",
	"features.edit_extract_ms":   "ms",
	"sta.nodes_retimed_per_edit": "count",
	"engine.shard_edit_ratio":    "ratio",
	"engine.store_get_ms":        "ms",
	"engine.store_get_bytes":     "bytes",
	"bog.unmarshal_ms":           "ms",
	"engine.reload_ms":           "ms",
	"engine.builds_per_req":      "count",
	"engine.hits_per_req":        "count",
	"engine.disk_hits_per_req":   "count",
	"engine.evictions_per_req":   "count",
	"engine.shard_hits_per_req":  "count",
	"trace.untraced_p50_ms":      "ms",
	"trace.traced_p50_ms":        "ms",
	"trace.replays":              "count",
	"trace.spans":                "count",
	"trace.max_child_share":      "ratio",
}

// minReplays is the fewest ladder rounds a traced run makes, however long
// they take.
const minReplays = 4

// runTraced is the traced run: set-up once, an untraced closed-loop phase
// and a traced one of equal length (their p50 difference is the tracing
// overhead; the traced phase also yields the per-request engine counts),
// then serial ladder replays of the workload's designs.
func runTraced(newW func() workload, cfg runConfig) (*result, error) {
	w := newW()
	if err := w.inputs(cfg.seed); err != nil {
		return nil, err
	}
	d, _, err := setUp(w, cfg.scratch, 1)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if err := w.oracle(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	tr := newTracer()
	phase := cfg.duration * 3 / 10
	untraced := runLoop(d, w.clients(0), phase, nil)
	before := d.svc.Stats()
	traced := runLoop(d, w.clients(1), phase, tr)
	after := d.svc.Stats()
	delta := statsDelta(before.Stats, after.Stats)
	errs := append(untraced.checkErrs, traced.checkErrs...)
	errs = append(errs, w.verify()...)
	if untraced.attempted+traced.attempted < minRequests {
		errs = append(errs, fmt.Sprintf("only %d requests completed, want at least %d", untraced.attempted+traced.attempted, minRequests))
	}
	report(traced, errs, after.Shed-before.Shed)

	l := &ladder{
		tr:   tr,
		d:    d,
		lib:  liberty.DefaultPseudoLib(),
		dir:  filepath.Join(cfg.scratch, "ladder"),
		rng:  rand.New(rand.NewSource(cfg.seed*1000 + 7)),
		vals: map[string][]float64{},
	}
	refs := w.refs()
	deadline := time.Now().Add(cfg.duration - 2*phase)
	for i := 0; i < minReplays || time.Now().Before(deadline); i++ {
		ref := refs[l.rng.Intn(len(refs))]
		v := bog.Variants()[i%int(bog.NumVariants)]
		if err := l.round(ref, float64(2+l.rng.Intn(19))/10, v); err != nil {
			return nil, err
		}
	}

	n := float64(traced.attempted)
	m := map[string]metric{}
	for name, vals := range l.vals {
		m[name] = metric{median(vals), perLayerUnits[name]}
	}
	ratio := 0.0
	if delta.Edits > 0 {
		ratio = float64(delta.ShardEdits) / float64(delta.Edits)
	}
	m["engine.shard_edit_ratio"] = metric{ratio, "ratio"}
	m["engine.builds_per_req"] = metric{float64(delta.Builds) / n, "count"}
	m["engine.hits_per_req"] = metric{float64(delta.Hits) / n, "count"}
	m["engine.disk_hits_per_req"] = metric{float64(delta.DiskHits) / n, "count"}
	m["engine.evictions_per_req"] = metric{float64(delta.Evictions) / n, "count"}
	m["engine.shard_hits_per_req"] = metric{float64(delta.ShardHits) / n, "count"}
	m["trace.untraced_p50_ms"] = metric{sliceMedian(untraced.sliced(), func(s sliceMetrics) float64 { return s.p50 }), "ms"}
	m["trace.traced_p50_ms"] = metric{sliceMedian(traced.sliced(), func(s sliceMetrics) float64 { return s.p50 }), "ms"}
	m["trace.replays"] = metric{float64(l.n), "count"}
	m["trace.spans"] = metric{float64(len(tr.spans)), "count"}

	worst := 0.0
	shares := tr.reconcile()
	names := make([]string, 0, len(shares))
	for name := range shares {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		share := shares[name]
		worst = max(worst, share)
		verdict := "ok"
		if share > 1+reconcileTolerance {
			verdict = "OVER"
		}
		fmt.Printf("reconcile %-20s children explain %5.1f%% of the parent (limit %.0f%%): %s\n", name, 100*share, 100*(1+reconcileTolerance), verdict)
	}
	m["trace.max_child_share"] = metric{worst, "ratio"}
	fmt.Printf("tracing overhead: traced p50 %.4f ms vs untraced %.4f ms\n", m["trace.traced_p50_ms"].Value, m["trace.untraced_p50_ms"].Value)
	for _, name := range sortedKeys(perLayerUnits) {
		if _, ok := m[name]; !ok {
			errs = append(errs, "traced run did not measure "+name)
		}
	}
	if err := tr.write(cfg.tracePath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), cfg.tracePath)
	return &result{
		Correct:   len(errs) == 0,
		Attempted: untraced.attempted + traced.attempted,
		Failed:    untraced.failed + traced.failed,
		Metrics:   m,
	}, nil
}
