package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/elab"
	"rtltimer/internal/engine"
	"rtltimer/internal/liberty"
	"rtltimer/internal/service"
	"rtltimer/internal/sta"
	"rtltimer/internal/verilog"
)

// workload is one named traffic mix. A fresh value serves one run; the
// methods are called in the order listed.
type workload interface {
	// inputs derives the run's inputs from the seed. It is benchmark work,
	// not the daemon's set-up, so it is not part of setup_s.
	inputs(seed int64) error
	// config is the daemon configuration; cacheDir is private to one
	// set-up repetition.
	config(cacheDir string) service.Config
	// warm sends the requests that make a fresh daemon ready for the
	// workload (part of setup_s); rep numbers the set-up repetition.
	warm(d *daemon, rep int) error
	// oracle computes the expected answers, off every clock.
	oracle() error
	// clients returns the closed loop's clients for one measured phase;
	// each phase draws its own request stream.
	clients(phase int) []client
	// check inspects the engine counters over the measured phase.
	check(delta engine.Stats, ls *loopStats) []string
	// verify runs the sampled reference checks after the measured phase.
	verify() []string
	// refs lists the designs the traced run replays through the layers.
	refs() []designRef
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func() workload{
	"warm-mix":     func() workload { return &warmMix{} },
	"cold-build":   func() workload { return &coldBuild{} },
	"edit-session": func() workload { return &editSession{} },
	"churn-reload": func() workload { return &churnReload{} },
}

// strata groups the corpus by total node count over the four variants, so
// seeded picks per stratum have about the same size on every seed: under 6k, 7k-13k, 17k-24k and 34k-37k nodes. syscdes (23k)
// and Rocket3 (44k), which warm-mix always serves, and syscaes (51k),
// which would widen the top stratum, are left out.
var strata = [][]string{
	{"b20", "b22", "conmax"},
	{"b17", "FPU", "b17_1", "Vex_1", "b18", "b18_1"},
	{"Vex_2", "Vex_3", "Marax", "Rocket1", "Rocket2"},
	{"Vex_4", "Vex5", "Vex6", "Vex7"},
}

// designRef is one design a workload serves.
type designRef struct {
	name  string
	src   string
	spec  designs.Spec
	bench bool // sent by corpus name; otherwise as inline source
}

func benchRef(name string) designRef {
	sp, ok := designs.ByName(name)
	if !ok {
		panic("perfbench: unknown corpus design " + name)
	}
	return designRef{name: sp.Name, src: designs.Generate(sp), spec: sp, bench: true}
}

func (r designRef) wire() service.DesignRef {
	if r.bench {
		return service.DesignRef{Bench: r.name}
	}
	return service.DesignRef{Src: r.src, Name: r.name}
}

// pickPeriods draws k distinct clock periods in ns from a 0.1 ns grid.
func pickPeriods(rng *rand.Rand, k int) []float64 {
	grid := rng.Perm(19)[:k]
	out := make([]float64, k)
	for i, g := range grid {
		out[i] = float64(g+2) / 10
	}
	return out
}

// clientSeed seeds one client's request stream in one measured phase.
func clientSeed(seed int64, phase, client int) int64 {
	return seed*1000 + int64(10*phase+client) + 1
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// fixedReq is a request whose answer is known before the run.
type fixedReq struct {
	call
	kind  string // eval | sweep | fmax
	ref   designRef
	sweep string
	want  []byte
}

// fillOracle answers every request serially on a separate single-worker,
// monolithic service (the determinism contract makes its bytes the
// expected bytes for any jobs/shards setting) and cross-checks each /sweep
// and /fmax text against the renderers the CLI uses.
func fillOracle(reqs []*fixedReq) error {
	osvc, err := service.New(service.Config{Jobs: 1, Shards: 1})
	if err != nil {
		return err
	}
	defer osvc.Close()
	h := osvc.Handler()
	for _, r := range reqs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s %s: oracle answered %d: %s", r.path, r.ref.name, rec.Code, rec.Body.String())
		}
		r.want = rec.Body.Bytes()
		if r.kind == "eval" {
			continue
		}
		reps, err := service.BuildSweepReps(context.Background(), osvc.Engine(), r.ref.name, r.ref.src)
		if err != nil {
			return err
		}
		var text strings.Builder
		var got struct {
			Text string `json:"text"`
		}
		if err := json.Unmarshal(r.want, &got); err != nil {
			return err
		}
		if r.kind == "sweep" {
			periods, err := service.ParseSweep(r.sweep)
			if err != nil {
				return err
			}
			service.RenderSweep(&text, r.ref.name, reps, periods)
		} else {
			service.RenderFmax(&text, r.ref.name, reps)
		}
		if got.Text != text.String() {
			return fmt.Errorf("%s %s: text differs from the CLI renderer", r.path, r.ref.name)
		}
	}
	return nil
}

// fixedClient replays a table of known requests chosen by pick, checking
// each answer byte for byte.
type fixedClient struct {
	pick func() *fixedReq
	last *fixedReq
}

func (c *fixedClient) next() *call {
	c.last = c.pick()
	return &c.last.call
}

func (c *fixedClient) done(_ *call, status int, body []byte) error {
	if status == http.StatusOK && !bytes.Equal(body, c.last.want) {
		return fmt.Errorf("%s %s: answer differs from the serial oracle", c.last.path, c.last.ref.name)
	}
	return nil
}

func evalReq(ref designRef, period float64) *fixedReq {
	return &fixedReq{
		call: call{path: "/eval", body: mustJSON(service.EvalRequest{Design: ref.wire(), Period: period})},
		kind: "eval",
		ref:  ref,
	}
}

// ---- warm-mix -------------------------------------------------------------

// warmMix is the resident cache-hit path the daemon exists for: twenty
// prebuilt corpus designs (syscdes, Rocket3 and every design of every size
// stratum) queried with ~70% /eval, ~20% /sweep and ~10% /fmax. The seed
// draws the periods, the sweep ranges and the request order but not the
// designs: with seeded picks of designs, the seed alone moved
// latency_p50_ms by 13% (one pick per stratum), and with two picks its
// spread over ten seeds still reached 0.25. It exercises service,
// designs, engine lookup, sta.At and the arrival digest, and bypasses the
// frontend, bit-blast, forward pass and feature extractor entirely.
type warmMix struct {
	seed   int64
	ds     []designRef
	evals  [][]*fixedReq
	sweeps [][]*fixedReq
	fmaxes []*fixedReq
}

func (w *warmMix) inputs(seed int64) error {
	w.seed = seed
	rng := rand.New(rand.NewSource(seed))
	names := []string{"syscdes", "Rocket3"}
	for _, s := range strata {
		names = append(names, s...)
	}
	for _, n := range names {
		ref := benchRef(n)
		w.ds = append(w.ds, ref)
		var evals, sweeps []*fixedReq
		for _, p := range pickPeriods(rng, 8) {
			evals = append(evals, evalReq(ref, p))
		}
		for _, steps := range []int{5, 9, 17} {
			spec := fmt.Sprintf("%.1f:%.1f:%d", 0.2+0.1*float64(rng.Intn(3)), 1.0+0.5*float64(rng.Intn(3)), steps)
			sweeps = append(sweeps, &fixedReq{
				call:  call{path: "/sweep", body: mustJSON(service.SweepRequest{Design: ref.wire(), Sweep: spec})},
				kind:  "sweep",
				ref:   ref,
				sweep: spec,
			})
		}
		w.evals = append(w.evals, evals)
		w.sweeps = append(w.sweeps, sweeps)
		w.fmaxes = append(w.fmaxes, &fixedReq{
			call: call{path: "/fmax", body: mustJSON(service.FmaxRequest{Design: ref.wire()})},
			kind: "fmax",
			ref:  ref,
		})
	}
	return nil
}

func (w *warmMix) config(string) service.Config { return daemonConfig() }

func (w *warmMix) warm(d *daemon, _ int) error {
	for _, evals := range w.evals {
		if _, err := d.postOK(evals[0].path, evals[0].body); err != nil {
			return err
		}
	}
	return nil
}

func (w *warmMix) oracle() error {
	var all []*fixedReq
	for i := range w.ds {
		all = append(all, w.evals[i]...)
		all = append(all, w.sweeps[i]...)
		all = append(all, w.fmaxes[i])
	}
	return fillOracle(all)
}

func (w *warmMix) clients(phase int) []client {
	cs := make([]client, numClients)
	for i := range cs {
		rng := rand.New(rand.NewSource(clientSeed(w.seed, phase, i)))
		cs[i] = &fixedClient{pick: func() *fixedReq {
			d := rng.Intn(len(w.ds))
			switch r := rng.Float64(); {
			case r < 0.7:
				return w.evals[d][rng.Intn(len(w.evals[d]))]
			case r < 0.9:
				return w.sweeps[d][rng.Intn(len(w.sweeps[d]))]
			default:
				return w.fmaxes[d]
			}
		}}
	}
	return cs
}

func (w *warmMix) check(delta engine.Stats, _ *loopStats) []string {
	if delta.Builds != 0 {
		return []string{fmt.Sprintf("warm-mix built %d representations in the measured phase, want 0", delta.Builds)}
	}
	return nil
}

func (w *warmMix) verify() []string  { return nil }
func (w *warmMix) refs() []designRef { return w.ds }

// ---- churn-reload -----------------------------------------------------------

// churnBudget is churn-reload's memory budget: smaller than the four
// variants of most single designs, so a rotation over the strata's
// eighteen designs evicts on nearly every query and reloads from the
// populated cache dir.
const churnBudget = 2 << 20

// churnReload is warm /eval rotating over more designs than the memory
// budget holds, with a populated cache dir: nearly every query evicts and
// reloads from disk, measuring the disk tier's read and decode path
// (Store.Get, entry and bog graph decode) that no other workload reaches.
// The seed draws the periods and each client's order, not the designs:
// with two seeded picks per stratum the seed moved latency_p50_ms by 13%.
type churnReload struct {
	seed  int64
	ds    []designRef
	evals [][]*fixedReq
}

func (w *churnReload) inputs(seed int64) error {
	w.seed = seed
	rng := rand.New(rand.NewSource(seed))
	for _, s := range strata {
		for _, name := range s {
			ref := benchRef(name)
			w.ds = append(w.ds, ref)
			var evals []*fixedReq
			for _, p := range pickPeriods(rng, 4) {
				evals = append(evals, evalReq(ref, p))
			}
			w.evals = append(w.evals, evals)
		}
	}
	return nil
}

func (w *churnReload) config(cacheDir string) service.Config {
	cfg := daemonConfig()
	cfg.CacheDir = cacheDir
	cfg.MemBudget = churnBudget
	return cfg
}

func (w *churnReload) warm(d *daemon, _ int) error {
	for _, evals := range w.evals {
		if _, err := d.postOK(evals[0].path, evals[0].body); err != nil {
			return err
		}
	}
	return nil
}

func (w *churnReload) oracle() error {
	var all []*fixedReq
	for _, e := range w.evals {
		all = append(all, e...)
	}
	return fillOracle(all)
}

// clients each cycle through their own seeded order of all designs, so a
// design comes back only after every other one has pushed it out.
func (w *churnReload) clients(phase int) []client {
	cs := make([]client, numClients)
	for i := range cs {
		rng := rand.New(rand.NewSource(clientSeed(w.seed, phase, i)))
		order := rng.Perm(len(w.ds))
		k := 0
		cs[i] = &fixedClient{pick: func() *fixedReq {
			evals := w.evals[order[k%len(order)]]
			k++
			return evals[rng.Intn(len(evals))]
		}}
	}
	return cs
}

func (w *churnReload) check(delta engine.Stats, ls *loopStats) []string {
	var errs []string
	if delta.Builds != 0 {
		errs = append(errs, fmt.Sprintf("churn-reload built %d representations in the measured phase, want 0 (the disk tier should serve every reload)", delta.Builds))
	}
	if delta.DiskHits < ls.attempted {
		errs = append(errs, fmt.Sprintf("churn-reload made %d disk reloads over %d queries, want at least one per query", delta.DiskHits, ls.attempted))
	}
	return errs
}

func (w *churnReload) verify() []string  { return nil }
func (w *churnReload) refs() []designRef { return w.ds }

// ---- cold-build -------------------------------------------------------------

// coldTemplates are one corpus design per generator family; cold-build
// reseeds and rescales them.
var coldTemplates = []string{"syscdes", "conmax", "FPU", "Marax", "b17", "Rocket1", "Vex_1"}

// coldBudget bounds cold-build's memory tier; every request is new, so
// the budget only decides how many finished builds stay resident.
const coldBudget = 64 << 20

// coldBuild sends every request as an /eval with inline source for an RTL
// revision not seen earlier in the run, across generator families and
// scales 1-4, with a cache dir and a memory budget: time to first answer
// for new RTL, where verilog, elab, bog, part, the sta forward pass,
// features and the disk-tier writes do the work and warm lookup does
// almost none.
type coldBuild struct {
	seed     int64
	cacheDir string // the serving daemon's cache dir (the last set-up's)

	mu      sync.Mutex
	seen    map[[32]byte]bool // sources sent so far
	samples []*coldSample
	answers int64 // 200 answers to /eval in the measured phase
}

// coldSample is one answered cold request kept for the reference check.
type coldSample struct {
	ref    designRef
	period float64
	resp   service.EvalResponse
}

// sampleEvery and maxSamples bound the reference checks after a run.
const (
	sampleEvery = 16
	maxSamples  = 24
)

func (w *coldBuild) inputs(seed int64) error {
	w.seed = seed
	w.seen = map[[32]byte]bool{}
	return nil
}

func (w *coldBuild) config(cacheDir string) service.Config {
	w.cacheDir = cacheDir
	cfg := daemonConfig()
	cfg.CacheDir = cacheDir
	cfg.MemBudget = coldBudget
	return cfg
}

// maxCryptoScale caps the crypto family (syscdes): at scale 4 its
// generator emits an 80-bit constant that the Verilog frontend rejects
// ("bad width"), so every such request would fail.
const maxCryptoScale = 3

// coldShape is one (generator family, scale) pair.
type coldShape struct {
	template string
	scale    int
}

// coldShapes lists every family at scales 1-4. Each cold-build client
// sends them in a fresh seeded order per cycle, so every run sees nearly
// the same mix of build sizes and the seed moves the order, the
// generators' seeds and the periods.
func coldShapes() []coldShape {
	var out []coldShape
	for _, t := range coldTemplates {
		for sc := 1; sc <= 4; sc++ {
			if t != "syscdes" || sc <= maxCryptoScale {
				out = append(out, coldShape{t, sc})
			}
		}
	}
	return out
}

// revision generates a fresh RTL revision of one shape: the family
// template reseeded and rescaled, plus a revision comment, because several
// generators (Rocket*, Vex*, conmax, FPU) ignore the seed and would
// otherwise repeat a source.
func revision(rng *rand.Rand, sh coldShape, tag string) designRef {
	sp, _ := designs.ByName(sh.template)
	sp.Seed = rng.Int63()
	sp.Scale = sh.scale
	src := designs.Generate(sp) + "\n// revision " + tag + "\n"
	return designRef{name: fmt.Sprintf("%s_x%d_%s", sp.Name, sp.Scale, tag), src: src, spec: sp}
}

// warm pays one cold build per generator family, so lazy process set-up
// is done before timing.
func (w *coldBuild) warm(d *daemon, rep int) error {
	rng := rand.New(rand.NewSource(w.seed*1000 + 100 + int64(rep)))
	for _, t := range coldTemplates {
		ref := revision(rng, coldShape{t, 1}, fmt.Sprintf("warm-up.%d.%d", w.seed, rep))
		if _, err := d.postOK("/eval", mustJSON(service.EvalRequest{Design: ref.wire(), Period: 0.5})); err != nil {
			return err
		}
	}
	return nil
}

func (w *coldBuild) oracle() error { return nil }

func (w *coldBuild) clients(phase int) []client {
	cs := make([]client, numClients)
	for i := range cs {
		cs[i] = &coldClient{w: w, id: i, phase: phase, shapes: coldShapes(), rng: rand.New(rand.NewSource(clientSeed(w.seed, phase, i)))}
	}
	return cs
}

type coldClient struct {
	w      *coldBuild
	id     int
	phase  int
	rng    *rand.Rand
	shapes []coldShape
	order  []int
	n      int
	last   designRef
	per    float64
}

func (c *coldClient) next() *call {
	if c.n%len(c.shapes) == 0 {
		c.order = c.rng.Perm(len(c.shapes))
	}
	sh := c.shapes[c.order[c.n%len(c.shapes)]]
	c.n++
	c.last = revision(c.rng, sh, fmt.Sprintf("%d.%d.%d.%d", c.w.seed, c.phase, c.id, c.n))
	c.per = float64(2+c.rng.Intn(19)) / 10
	return &call{path: "/eval", body: mustJSON(service.EvalRequest{Design: c.last.wire(), Period: c.per})}
}

func (c *coldClient) done(_ *call, status int, body []byte) error {
	sum := sha256.Sum256([]byte(c.last.src))
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	if c.w.seen[sum] {
		return fmt.Errorf("cold-build sent source %s twice", c.last.name)
	}
	c.w.seen[sum] = true
	if status != http.StatusOK {
		return nil
	}
	c.w.answers++
	if c.w.answers%pruneEvery == 0 {
		c.w.prune()
	}
	if c.n%sampleEvery == 0 && len(c.w.samples) < maxSamples {
		s := &coldSample{ref: c.last, period: c.per}
		if err := json.Unmarshal(body, &s.resp); err != nil {
			return fmt.Errorf("cold-build %s: %v", c.last.name, err)
		}
		c.w.samples = append(c.w.samples, s)
	}
	return nil
}

// pruneEvery is how many answers pass between prunes of the cache dir.
const pruneEvery = 8

// prune deletes the whole-representation entries (.rep) the daemon has
// written. No revision is ever asked for twice, so none is read back;
// left in place, a run's ~1 GB of entries went to the kernel's writeback
// and slowed the runs after it (CPU per request rose ~30% over ten
// back-to-back runs on the benchmark box). Shard entries stay: identical
// shards of seed-insensitive families are reused by later revisions.
func (w *coldBuild) prune() {
	ents, err := os.ReadDir(w.cacheDir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".rep") {
			os.Remove(filepath.Join(w.cacheDir, e.Name()))
		}
	}
}

func (w *coldBuild) check(delta engine.Stats, _ *loopStats) []string {
	if want := 4 * w.answers; delta.Builds != want {
		return []string{fmt.Sprintf("cold-build made %d builds for %d answered requests, want exactly %d", delta.Builds, w.answers, want)}
	}
	return nil
}

// verify recomputes sampled answers with the retained reference STA on
// graphs the benchmark builds itself.
func (w *coldBuild) verify() []string {
	var errs []string
	if len(w.samples) == 0 {
		return []string{"cold-build kept no samples to verify"}
	}
	for _, s := range w.samples {
		graphs, err := buildGraphs(s.ref.src)
		if err != nil {
			errs = append(errs, fmt.Sprintf("cold-build %s: %v", s.ref.name, err))
			continue
		}
		for _, r := range s.resp.Results {
			if e := checkReference(graphs[variantByName(r.Variant)], s.period, r); e != "" {
				errs = append(errs, fmt.Sprintf("cold-build %s %s", s.ref.name, e))
			}
		}
	}
	return errs
}

// refs for cold-build are revisions generated afresh for each replay.
func (w *coldBuild) refs() []designRef {
	rng := rand.New(rand.NewSource(w.seed*1000 + 99))
	shapes := coldShapes()
	out := make([]designRef, 8)
	for i, j := range rng.Perm(len(shapes))[:len(out)] {
		out[i] = revision(rng, shapes[j], fmt.Sprintf("trace.%d.%d", w.seed, i))
	}
	return out
}

// buildGraphs runs the frontend and bit-blasts all four variants.
func buildGraphs(src string) (map[bog.Variant]*bog.Graph, error) {
	parsed, err := verilog.Parse(src)
	if err != nil {
		return nil, err
	}
	d, err := elab.Elaborate(parsed)
	if err != nil {
		return nil, err
	}
	out := map[bog.Variant]*bog.Graph{}
	for _, v := range bog.Variants() {
		if out[v], err = bog.Build(d, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func variantByName(name string) bog.Variant {
	for _, v := range bog.Variants() {
		if v.String() == name {
			return v
		}
	}
	return bog.NumVariants
}

// checkReference compares one answered verdict with sta.AnalyzeReference
// on the same graph; it returns "" when they agree exactly.
func checkReference(g *bog.Graph, period float64, got service.VariantResult) string {
	if g == nil {
		return fmt.Sprintf("%s: unknown variant", got.Variant)
	}
	ref := sta.AnalyzeReference(g, liberty.DefaultPseudoLib(), period)
	if ref.WNS != got.WNS || ref.TNS != got.TNS || len(g.Endpoints) != got.Endpoints {
		return fmt.Sprintf("%s @%g: answered WNS %v TNS %v endpoints %d, reference WNS %v TNS %v endpoints %d",
			got.Variant, period, got.WNS, got.TNS, got.Endpoints, ref.WNS, ref.TNS, len(g.Endpoints))
	}
	return ""
}

// ---- edit-session -----------------------------------------------------------

// editBudget bounds edit-session's memory tier, which fills with derived
// entries; the cache dir behind it means an evicted base reloads rather
// than rebuilds.
const editBudget = 128 << 20

// maxDepth bounds an edit chain; the client then closes the session and
// reopens on its next base.
const maxDepth = 8

// evalsPerEdit is how many /session/eval requests, each at its own seeded
// period, follow every edit batch. With one, evals and open/close made 56%
// of the requests, so latency_p50_ms sat on the cliff between the eval
// and edit latencies and the seed moved it by up to 30%; with three it
// lies inside the eval latencies, and latency_p90_ms inside the edits.
const evalsPerEdit = 3

// editSession is the optimiser's what-if loop: each client holds sessions
// on prebuilt bases and loops /session/edit (one seeded, variant-valid
// batch, always a new delta, so a derivation miss) then evalsPerEdit
// /session/eval. engine derive, bog.Clone, sta.Incremental and features
// do the work; the frontend and the full forward pass do none. Unlike
// warm-mix it writes derived entries into the same cache.
type editSession struct {
	seed  int64
	bases [][]designRef // per client: every design above the smallest stratum, rotated
	// graphs are the benchmark's own bit-blasts of each base, used to pick
	// valid edit sites and to check sampled answers.
	graphs map[string]map[bog.Variant]*bog.Graph

	mu      sync.Mutex
	samples []*editSample
	edits   int64 // 200 answers to /session/edit in the measured phase
	// firstSeen holds the first batches already sent per base and variant,
	// by either client in any phase, so every batch is a new delta and
	// therefore a derivation miss: both clients rotate over the same bases.
	firstSeen map[string]bool
}

type editSample struct {
	ref     designRef
	variant bog.Variant
	deltas  []bog.Delta
	period  float64
	got     service.VariantResult
}

func (w *editSession) inputs(seed int64) error {
	w.seed = seed
	w.firstSeen = map[string]bool{}
	w.graphs = map[string]map[bog.Variant]*bog.Graph{}
	var all []designRef
	for _, s := range strata[1:] {
		for _, name := range s {
			ref := benchRef(name)
			all = append(all, ref)
			gs, err := buildGraphs(ref.src)
			if err != nil {
				return err
			}
			w.graphs[ref.name] = gs
		}
	}
	w.bases = make([][]designRef, numClients)
	for c := range w.bases {
		off := c * len(all) / numClients
		w.bases[c] = append(append([]designRef(nil), all[off:]...), all[:off]...)
	}
	return nil
}

func (w *editSession) config(cacheDir string) service.Config {
	cfg := daemonConfig()
	cfg.CacheDir = cacheDir
	cfg.MemBudget = editBudget
	return cfg
}

func (w *editSession) warm(d *daemon, _ int) error {
	for _, b := range w.bases[0] {
		if _, err := d.postOK("/eval", mustJSON(service.EvalRequest{Design: b.wire(), Period: 1})); err != nil {
			return err
		}
	}
	return nil
}

func (w *editSession) oracle() error { return nil }

func (w *editSession) clients(phase int) []client {
	cs := make([]client, numClients)
	for i := range cs {
		cs[i] = &editClient{
			w:     w,
			bases: w.bases[i],
			rng:   rand.New(rand.NewSource(clientSeed(w.seed, phase, i))),
		}
	}
	return cs
}

// claimFirst reports whether no client has sent the first batch key yet,
// and records it.
func (w *editSession) claimFirst(key string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.firstSeen[key] {
		return false
	}
	w.firstSeen[key] = true
	return true
}

func (w *editSession) check(delta engine.Stats, _ *loopStats) []string {
	var errs []string
	if delta.Builds != 0 {
		errs = append(errs, fmt.Sprintf("edit-session built %d representations in the measured phase, want 0", delta.Builds))
	}
	if delta.Edits != w.edits {
		errs = append(errs, fmt.Sprintf("edit-session derived %d edits for %d answered edit batches, want one derivation per batch", delta.Edits, w.edits))
	}
	return errs
}

func (w *editSession) verify() []string {
	if len(w.samples) == 0 {
		return []string{"edit-session kept no samples to verify"}
	}
	var errs []string
	for _, s := range w.samples {
		g, err := replayChain(w.graphs[s.ref.name][s.variant], s.deltas)
		if err != nil {
			errs = append(errs, fmt.Sprintf("edit-session %s: replaying the chain: %v", s.ref.name, err))
			continue
		}
		if e := checkReference(g, s.period, s.got); e != "" {
			errs = append(errs, fmt.Sprintf("edit-session %s depth %d %s", s.ref.name, len(s.deltas), e))
		}
	}
	return errs
}

// replayChain applies a session's deltas to a copy of its base graph.
func replayChain(base *bog.Graph, deltas []bog.Delta) (*bog.Graph, error) {
	g := base.Clone()
	for _, d := range deltas {
		if _, err := g.Apply(d); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func (w *editSession) refs() []designRef { return w.bases[0] }

// editClient walks open -> (edit, eval x evalsPerEdit) x maxDepth -> close
// over its bases,
// rotating the variant each time it has visited every base.
type editClient struct {
	w     *editSession
	bases []designRef
	rng   *rand.Rand

	bi, vi  int
	sess    string
	ref     designRef
	variant bog.Variant
	g       *bog.Graph // the session head as the benchmark tracks it
	chain   engine.Key
	deltas  []bog.Delta
	pending bog.Delta
	periods []float64 // the periods still to evaluate the head at
	period  float64
	evals   int
}

func (c *editClient) next() *call {
	switch {
	case c.sess == "":
		c.ref = c.bases[c.bi]
		c.variant = bog.Variants()[c.vi%int(bog.NumVariants)]
		return &call{path: "/session/open", body: mustJSON(service.SessionOpenRequest{Design: c.ref.wire(), Variant: c.variant.String()})}
	case len(c.periods) > 0:
		c.period, c.periods = c.periods[0], c.periods[1:]
		return &call{path: "/session/eval", body: mustJSON(service.SessionEvalRequest{Session: c.sess, Period: c.period})}
	case len(c.deltas) >= maxDepth:
		return &call{path: "/session/close", body: mustJSON(map[string]string{"session": c.sess})}
	default:
		for {
			c.pending = editBatch(c.g, c.rng)
			if len(c.deltas) > 0 {
				break
			}
			if c.w.claimFirst(fmt.Sprintf("%s/%v/%x", c.ref.name, c.variant, c.pending.AppendBinary(nil))) {
				break
			}
		}
		return &call{path: "/session/edit", body: mustJSON(service.SessionEditRequest{Session: c.sess, Edits: wireEdits(c.pending)})}
	}
}

func (c *editClient) done(cl *call, status int, body []byte) error {
	if status != http.StatusOK {
		c.reset()
		return nil
	}
	switch cl.path {
	case "/session/open":
		var st service.SessionState
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		c.sess = st.Session
		c.g = c.w.graphs[c.ref.name][c.variant].Clone()
		c.chain = engine.Key{Design: engine.DesignTag(c.ref.name, c.ref.src), Variant: c.variant}
		c.deltas = nil
		return nil
	case "/session/edit":
		var st service.SessionState
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		if _, err := c.g.Apply(c.pending); err != nil {
			return fmt.Errorf("edit-session: the benchmark's own copy rejected an accepted batch: %v", err)
		}
		c.chain = engine.EditKey(c.chain, c.pending)
		c.deltas = append(c.deltas, c.pending)
		c.periods = pickPeriods(c.rng, evalsPerEdit)
		c.w.mu.Lock()
		c.w.edits++
		c.w.mu.Unlock()
		if st.Chain != c.chain.Edit || st.Depth != len(c.deltas) {
			return fmt.Errorf("edit-session %s: chain %q depth %d, want engine.EditKey replay %q depth %d", c.ref.name, st.Chain, st.Depth, c.chain.Edit, len(c.deltas))
		}
		return nil
	case "/session/eval":
		var r service.SessionEvalResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.State.Chain != c.chain.Edit {
			return fmt.Errorf("edit-session %s: eval at chain %q, want %q", c.ref.name, r.State.Chain, c.chain.Edit)
		}
		c.evals++
		if c.evals%sampleEvery == 0 {
			c.w.mu.Lock()
			if len(c.w.samples) < maxSamples {
				c.w.samples = append(c.w.samples, &editSample{
					ref:     c.ref,
					variant: c.variant,
					deltas:  append([]bog.Delta(nil), c.deltas...),
					period:  c.period,
					got:     r.Result,
				})
			}
			c.w.mu.Unlock()
		}
		return nil
	default: // close
		c.reset()
		return nil
	}
}

// reset forgets the session and moves on to the next base.
func (c *editClient) reset() {
	c.sess, c.periods, c.deltas = "", nil, nil
	c.bi++
	if c.bi == len(c.bases) {
		c.bi = 0
		c.vi++
	}
}

// editBatch draws one edit batch the graph's variant accepts: a set-op
// within the variant's two-input alphabet where it has one (SOG, XAG), a
// set-fanin to an earlier nearby node otherwise (AIG, AIMG have a single
// two-input operator), plus a second set-fanin a third of the time. The
// batch is validated against the graph, so the service accepts it.
func editBatch(g *bog.Graph, rng *rand.Rand) bog.Delta {
	var alphabet []bog.Op
	switch g.Variant {
	case bog.SOG:
		alphabet = []bog.Op{bog.And, bog.Or, bog.Xor}
	case bog.XAG:
		alphabet = []bog.Op{bog.And, bog.Xor}
	}
	n := len(g.Nodes)
	pick := func() (bog.NodeID, *bog.Node) {
		for {
			id := bog.NodeID(2 + rng.Intn(n-2))
			nd := &g.Nodes[id]
			if nd.NumFanin() > 0 && (alphabet == nil || nd.NumFanin() == 2) {
				return id, nd
			}
		}
	}
	setFanin := func() bog.Edit {
		for {
			id, nd := pick()
			slot := rng.Intn(nd.NumFanin())
			lo := max(2, int(id)-256)
			if lo >= int(id) {
				continue
			}
			to := bog.NodeID(lo + rng.Intn(int(id)-lo))
			if to != nd.Fanin[slot] {
				return bog.SetFaninEdit(id, slot, to)
			}
		}
	}
	var d bog.Delta
	if alphabet != nil {
		for {
			id, nd := pick()
			op := alphabet[rng.Intn(len(alphabet))]
			if op != nd.Op {
				d = append(d, bog.SetOpEdit(id, op))
				break
			}
		}
	} else {
		d = append(d, setFanin())
	}
	if rng.Intn(3) == 0 {
		d = append(d, setFanin())
	}
	if err := g.CheckDelta(d); err != nil {
		panic(fmt.Sprintf("perfbench: generated an invalid edit batch: %v", err))
	}
	return d
}

// wireEdits converts a delta to the service's wire form.
func wireEdits(d bog.Delta) []service.EditSpec {
	out := make([]service.EditSpec, len(d))
	for i, e := range d {
		switch e.Kind {
		case bog.EditSetOp:
			out[i] = service.EditSpec{Kind: "set-op", Node: int32(e.Node), Op: e.Op.String()}
		case bog.EditSetFanin:
			out[i] = service.EditSpec{Kind: "set-fanin", Node: int32(e.Node), Slot: int(e.Slot), To: int32(e.To)}
		default:
			panic(errors.New("perfbench: only set-op and set-fanin batches are generated"))
		}
	}
	return out
}
