// Package service is the resident query engine behind rtltimerd (ROADMAP
// item 1): one engine.Engine held warm across requests, exposed through
// typed request/response methods that an HTTP layer (or a test harness)
// drives directly. The determinism contract is the engine's, surfaced:
// every response is a pure function of the request and the engine's
// standing bit-identity guarantees, so the same query answered by a
// day-old daemon, a fresh daemon, or the one-shot CLI produces identical
// bytes. The /sweep and /fmax text payloads are literally the CLI
// renderers' output (see render.go).
//
// Sessions are the daemon-native surface over RepResult.Edit: a client
// opens a session on one (design, variant) base representation and applies
// JSON edit batches; each batch maps 1:1 onto one RepResult.Edit call, so
// the session's chain key is exactly the engine.EditKey chain and replayed
// histories hit the delta-keyed memory tier.
package service

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtltimer/internal/annotate"
	"rtltimer/internal/bog"
	"rtltimer/internal/core"
	"rtltimer/internal/dataset"
	"rtltimer/internal/designs"
	"rtltimer/internal/engine"
)

// Config configures a Service. The zero value is usable: all cores, no
// disk cache, no memory budget, no model, default admission gate, no
// request deadline, no session cap or reaping.
type Config struct {
	Jobs      int    // evaluation workers (0 = all cores)
	Shards    int    // register-bounded shards per graph (0 = auto, 1 = monolithic)
	CacheDir  string // persistent representation cache (empty = memory only)
	Claim     bool   // coordinate cache builds with peer processes via claim files
	MemBudget int64  // approximate resident bytes for the memory tier (0 = unlimited)
	ModelPath string // saved model enabling Annotate (empty = Annotate errors)
	Seed      int64  // model/dataset seed for Annotate builds

	// Survivability knobs (see admission.go, reaper.go). MaxInflight
	// bounds concurrently admitted POST requests (0 = 2×jobs); QueueWait
	// is how long an excess request may wait for a slot before a 503
	// (0 = shed immediately). RequestTimeout is the per-request deadline
	// wired through the request context (0 = unlimited). MaxSessions
	// caps the open-session table (0 = unlimited); SessionTTL reaps
	// sessions idle that long (0 = never), on a ReapInterval cadence
	// (0 = TTL/4). Clock is the time seam for retention decisions
	// (nil = time.Now); results never depend on it.
	MaxInflight    int
	QueueWait      time.Duration
	RequestTimeout time.Duration
	MaxSessions    int
	SessionTTL     time.Duration
	ReapInterval   time.Duration
	Clock          func() time.Time
}

// Service is the resident engine plus its session table. Safe for
// concurrent use; all engine-level concurrency control is the engine's.
type Service struct {
	eng   *engine.Engine
	model *core.Model
	seed  int64

	gate           *gate
	requestTimeout time.Duration
	shed           atomic.Int64 // requests rejected 503 by the gate

	clock       func() time.Time
	maxSessions int
	sessionTTL  time.Duration
	reapStop    chan struct{}
	reapDone    chan struct{}
	closeOnce   sync.Once

	mu       sync.Mutex
	sessions map[string]*session
	nextSess uint64
}

// session is one client's edit chain over a single base representation.
// design/variant/head/chain/depth are guarded by the session's own mu;
// lastUse and inflight are table-level retention state guarded by
// Service.mu (the reaper reads them without touching sess.mu).
type session struct {
	mu      sync.Mutex
	design  string
	variant bog.Variant
	head    *engine.RepResult
	chain   engine.Key // base key with the accumulated Edit digest chain
	depth   int        // applied edit batches

	lastUse  time.Time // last acquire or release (Service.mu)
	inflight int       // requests currently using this session (Service.mu)
}

// New builds the resident service: engine configured, model loaded (when
// given), sessions empty. Errors are configuration errors — a bad cache
// dir, an unloadable model.
func New(cfg Config) (*Service, error) {
	if err := engine.ValidateConcurrency(cfg.Jobs, cfg.Shards); err != nil {
		return nil, err
	}
	eng := engine.New(cfg.Jobs)
	eng.SetShards(cfg.Shards)
	if cfg.CacheDir != "" {
		if err := os.MkdirAll(cfg.CacheDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: cache dir: %w", err)
		}
		eng.SetCacheDir(cfg.CacheDir)
		eng.SetClaiming(cfg.Claim)
	} else if cfg.Claim {
		return nil, fmt.Errorf("service: claiming requires a cache directory")
	}
	eng.SetMemBudget(cfg.MemBudget)
	s := &Service{
		eng:            eng,
		seed:           cfg.Seed,
		sessions:       map[string]*session{},
		requestTimeout: cfg.RequestTimeout,
		clock:          cfg.Clock,
		maxSessions:    cfg.MaxSessions,
		sessionTTL:     cfg.SessionTTL,
	}
	if s.clock == nil {
		s.clock = time.Now
	}
	inflight := cfg.MaxInflight
	if inflight <= 0 {
		inflight = 2 * eng.Jobs()
	}
	s.gate = newGate(inflight, cfg.QueueWait)
	if cfg.ModelPath != "" {
		m, err := core.LoadFile(cfg.ModelPath)
		if err != nil {
			return nil, fmt.Errorf("service: loading model: %w", err)
		}
		s.model = m
	}
	if cfg.SessionTTL > 0 {
		interval := cfg.ReapInterval
		if interval <= 0 {
			interval = cfg.SessionTTL / 4
			if interval <= 0 {
				interval = cfg.SessionTTL
			}
		}
		s.startReaper(interval)
	}
	return s, nil
}

// Engine exposes the resident engine (stats, budget tuning, tests).
func (s *Service) Engine() *engine.Engine { return s.eng }

// DesignRef names the design a request targets: either a built-in
// benchmark by name, or inline Verilog source with an optional display
// name. Exactly one of Bench and Src must be set.
type DesignRef struct {
	Bench string `json:"bench,omitempty"`
	Src   string `json:"src,omitempty"`
	Name  string `json:"name,omitempty"` // display name for Src (default "inline")
}

// target is a resolved design: the spec (whose Name every response
// reports), the Verilog source and the engine design tag derived from both.
type target struct {
	spec designs.Spec
	src  string
	tag  string
}

// corpus resolves built-in benchmark names without regenerating or
// re-hashing their source on every request. The corpus is fixed at build
// time, so its sources and tags are generated once per process, on the
// first request that names a benchmark (~1.4 ms for the 21 specs); a
// daemon serving only inline source never pays it.
var corpus = sync.OnceValue(func() map[string]target {
	all := designs.All()
	out := make(map[string]target, len(all))
	for _, sp := range all {
		src := designs.Generate(sp)
		out[sp.Name] = target{spec: sp, src: src, tag: engine.DesignTag(sp.Name, src)}
	}
	return out
})

// resolve turns a DesignRef into the target every engine query keys on.
// Built-in benchmarks come from the corpus table; inline source is tagged
// per request.
func (s *Service) resolve(ref DesignRef) (target, error) {
	switch {
	case ref.Bench != "" && ref.Src != "":
		return target{}, fmt.Errorf("design wants exactly one of bench or src, got both")
	case ref.Bench != "":
		t, ok := corpus()[ref.Bench]
		if !ok {
			return target{}, fmt.Errorf("unknown benchmark %q", ref.Bench)
		}
		return t, nil
	case ref.Src != "":
		name := ref.Name
		if name == "" {
			name = "inline"
		}
		return target{
			spec: designs.Spec{Name: name, Seed: s.seed},
			src:  ref.Src,
			tag:  engine.DesignTag(name, ref.Src),
		}, nil
	default:
		return target{}, fmt.Errorf("design wants one of bench or src")
	}
}

// parseVariant maps the wire name ("SOG", "AIG", ...) onto the variant.
func parseVariant(name string) (bog.Variant, error) {
	for _, v := range bog.Variants() {
		if strings.EqualFold(name, v.String()) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q (want one of SOG, AIG, AIMG, XAG)", name)
}

// EvalRequest asks for the pseudo-STA verdict of one design at one period.
type EvalRequest struct {
	Design   DesignRef `json:"design"`
	Period   float64   `json:"period"`
	Variants []string  `json:"variants,omitempty"` // default: all four
}

// VariantResult is one representation's verdict at the requested period.
type VariantResult struct {
	Variant   string  `json:"variant"`
	WNS       float64 `json:"wns"`
	TNS       float64 `json:"tns"`
	Endpoints int     `json:"endpoints"`
	// ArrivalSHA256 fingerprints the period-free arrival vector so harnesses
	// can assert full bit-identity without shipping the vector.
	ArrivalSHA256 string `json:"arrival_sha256"`
}

// EvalResponse is the /eval payload.
type EvalResponse struct {
	Design  string          `json:"design"`
	Period  float64         `json:"period"`
	Results []VariantResult `json:"results"`
}

// Eval answers one single-period query from the resident cache. Variants
// may be named at most once each, so a response never holds more than
// one entry per representation however long the request's list is.
func (s *Service) Eval(ctx context.Context, req EvalRequest) (*EvalResponse, error) {
	if !(req.Period > 0) || math.IsInf(req.Period, 1) {
		return nil, badRequestf("eval wants a finite positive period, got %v", req.Period)
	}
	t, err := s.resolve(req.Design)
	if err != nil {
		return nil, badRequest(err)
	}
	want := bog.Variants()
	if len(req.Variants) > 0 {
		want = want[:0]
		var seen [bog.NumVariants]bool
		for _, vn := range req.Variants {
			v, verr := parseVariant(vn)
			if verr != nil {
				return nil, badRequest(verr)
			}
			if seen[v] {
				return nil, badRequestf("variant %q is listed more than once", vn)
			}
			seen[v] = true
			want = append(want, v)
		}
	}
	reps, err := buildReps(ctx, s.eng, t.tag, t.src)
	if err != nil {
		return nil, classifyEngineErr(err)
	}
	resp := &EvalResponse{Design: t.spec.Name, Period: req.Period, Results: make([]VariantResult, 0, len(want))}
	for _, v := range want {
		resp.Results = append(resp.Results, variantResult(v, reps[v], req.Period))
	}
	return resp, nil
}

// variantResult is one representation's verdict at period: WNS/TNS from
// the allocation-free endpoint loop and the result's memoized digest.
func variantResult(v bog.Variant, rr *engine.RepResult, period float64) VariantResult {
	wns, tns := rr.Summary(period)
	return VariantResult{
		Variant:       v.String(),
		WNS:           wns,
		TNS:           tns,
		Endpoints:     len(rr.Graph.Endpoints),
		ArrivalSHA256: rr.ArrivalDigest(),
	}
}

// SweepRequest asks for the WNS/TNS-vs-period curve.
type SweepRequest struct {
	Design DesignRef `json:"design"`
	Sweep  string    `json:"sweep"` // lo:hi:steps, the CLI's -sweep syntax
}

// SweepResponse carries the curve as the CLI renders it: Text is
// byte-identical to `rtltimer -sweep` output for the same design.
type SweepResponse struct {
	Design string `json:"design"`
	Points int    `json:"points"`
	Text   string `json:"text"`
}

// Sweep answers a period-sweep query from the resident cache.
func (s *Service) Sweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	periods, err := ParseSweep(req.Sweep)
	if err != nil {
		return nil, badRequest(err)
	}
	t, rerr := s.resolve(req.Design)
	if rerr != nil {
		return nil, badRequest(rerr)
	}
	reps, berr := buildReps(ctx, s.eng, t.tag, t.src)
	if berr != nil {
		return nil, classifyEngineErr(berr)
	}
	var b strings.Builder
	RenderSweep(&b, t.spec.Name, reps, periods)
	return &SweepResponse{Design: t.spec.Name, Points: len(periods), Text: b.String()}, nil
}

// FmaxRequest asks for the binary-searched maximum frequency.
type FmaxRequest struct {
	Design DesignRef `json:"design"`
}

// FmaxVariant is one representation's fmax verdict.
type FmaxVariant struct {
	Variant  string  `json:"variant"`
	Feasible bool    `json:"feasible"`
	Period   float64 `json:"period,omitempty"`   // critical period, ns
	FmaxGHz  float64 `json:"fmax_ghz,omitempty"` // 1/period
}

// FmaxResponse carries both the parsed verdicts and the CLI-identical text.
type FmaxResponse struct {
	Design  string        `json:"design"`
	Results []FmaxVariant `json:"results"`
	Text    string        `json:"text"`
}

// Fmax answers a maximum-frequency query from the resident cache.
func (s *Service) Fmax(ctx context.Context, req FmaxRequest) (*FmaxResponse, error) {
	t, err := s.resolve(req.Design)
	if err != nil {
		return nil, badRequest(err)
	}
	reps, berr := buildReps(ctx, s.eng, t.tag, t.src)
	if berr != nil {
		return nil, classifyEngineErr(berr)
	}
	resp := &FmaxResponse{Design: t.spec.Name}
	for _, v := range bog.Variants() {
		rr := reps[v]
		fv := FmaxVariant{Variant: v.String()}
		if len(rr.Graph.Endpoints) > 0 {
			if p, ok := FmaxSearch(rr); ok {
				fv.Feasible, fv.Period, fv.FmaxGHz = true, p, 1/p
			}
		}
		resp.Results = append(resp.Results, fv)
	}
	var b strings.Builder
	RenderFmax(&b, t.spec.Name, reps)
	resp.Text = b.String()
	return resp, nil
}

// AnnotateRequest asks for the model's slack-annotated source.
type AnnotateRequest struct {
	Design DesignRef `json:"design"`
	Period float64   `json:"period,omitempty"` // 0 = automatic per-design clock
}

// AnnotateResponse carries the prediction header numbers and the annotated
// Verilog text.
type AnnotateResponse struct {
	Design string  `json:"design"`
	WNS    float64 `json:"wns"`
	TNS    float64 `json:"tns"`
	Period float64 `json:"period"`
	Text   string  `json:"text"`
}

// Annotate predicts per-signal slack with the loaded model and returns the
// annotated source. Errors when the daemon was started without a model.
func (s *Service) Annotate(ctx context.Context, req AnnotateRequest) (*AnnotateResponse, error) {
	if s.model == nil {
		return nil, badRequestf("annotate needs a trained model: start the daemon with -model")
	}
	t, err := s.resolve(req.Design)
	if err != nil {
		return nil, badRequest(err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dd, derr := dataset.BuildFromSource(t.spec, t.src,
		dataset.BuildOptions{Seed: s.seed, Period: req.Period, Engine: s.eng})
	if derr != nil {
		return nil, classifyEngineErr(derr)
	}
	pred := s.model.Predict(dd)
	out, aerr := annotate.Annotate(t.src, pred, annotate.Options{})
	if aerr != nil {
		return nil, classifyEngineErr(aerr)
	}
	return &AnnotateResponse{Design: t.spec.Name, WNS: pred.WNS, TNS: pred.TNS, Period: pred.Period, Text: out}, nil
}

// StatsResponse is the /stats payload: the engine counters plus the
// resident-memory accounting, the session table size, and the admission
// gate's shed count (requests rejected 503 under overload).
type StatsResponse struct {
	Stats     engine.Stats `json:"stats"`
	MemUsed   int64        `json:"mem_used"`
	MemBudget int64        `json:"mem_budget"`
	CacheDir  string       `json:"cache_dir,omitempty"`
	Sessions  int          `json:"sessions"`
	Model     bool         `json:"model"`
	Shed      int64        `json:"shed"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() *StatsResponse {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	return &StatsResponse{
		Stats:     s.eng.Stats(),
		MemUsed:   s.eng.MemUsed(),
		MemBudget: s.eng.MemBudget(),
		CacheDir:  s.eng.CacheDir(),
		Sessions:  n,
		Model:     s.model != nil,
		Shed:      s.shed.Load(),
	}
}

// SessionOpenRequest opens an edit session on one base representation.
type SessionOpenRequest struct {
	Design  DesignRef `json:"design"`
	Variant string    `json:"variant"`
}

// SessionState reports a session's position in its edit chain.
type SessionState struct {
	Session string `json:"session"`
	Design  string `json:"design"`
	Variant string `json:"variant"`
	Depth   int    `json:"depth"` // applied edit batches
	// Chain is the accumulated engine edit-chain digest (engine.Key.Edit):
	// empty at the base, one 64-hex digest appended per batch. Two sessions
	// that replayed the same history report the same chain and share the
	// same delta-keyed cache slots.
	Chain string `json:"chain"`
}

// SessionOpen builds (or warms) the base representation and registers the
// session at chain depth 0. The -max-sessions cap is checked before the
// build (reject cheap) and re-checked at insertion (the table may have
// filled while this open was building).
func (s *Service) SessionOpen(ctx context.Context, req SessionOpenRequest) (*SessionState, error) {
	v, err := parseVariant(req.Variant)
	if err != nil {
		return nil, badRequest(err)
	}
	t, rerr := s.resolve(req.Design)
	if rerr != nil {
		return nil, badRequest(rerr)
	}
	if err := s.checkSessionCap(); err != nil {
		return nil, err
	}
	reps, berr := buildReps(ctx, s.eng, t.tag, t.src)
	if berr != nil {
		return nil, classifyEngineErr(berr)
	}
	sess := &session{
		design:  t.spec.Name,
		variant: v,
		head:    reps[v],
		chain:   engine.Key{Design: t.tag, Variant: v},
		lastUse: s.now(),
	}
	s.mu.Lock()
	if s.maxSessions > 0 && len(s.sessions) >= s.maxSessions {
		s.mu.Unlock()
		return nil, s.sessionCapError()
	}
	s.nextSess++
	id := fmt.Sprintf("s%d", s.nextSess)
	s.sessions[id] = sess
	s.mu.Unlock()
	return s.state(id, sess), nil
}

// checkSessionCap pre-screens SessionOpen against -max-sessions.
func (s *Service) checkSessionCap() error {
	if s.maxSessions <= 0 {
		return nil
	}
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	if n >= s.maxSessions {
		return s.sessionCapError()
	}
	return nil
}

// sessionCapError is the clear-message 400 the cap satellite requires: it
// names the limit and what the client can do about it.
func (s *Service) sessionCapError() error {
	return badRequestf("session table full (%d open, cap %d from -max-sessions): close idle sessions or raise the cap", s.maxSessions, s.maxSessions)
}

func (s *Service) state(id string, sess *session) *SessionState {
	return &SessionState{
		Session: id,
		Design:  sess.design,
		Variant: sess.variant.String(),
		Depth:   sess.depth,
		Chain:   sess.chain.Edit,
	}
}

// acquireSession looks up a session and marks it in flight, so the idle
// reaper (reaper.go) never drops a session mid-request. The returned
// release restores the idle clock; callers must invoke it exactly once,
// after dropping sess.mu (defer both, release first — LIFO runs the
// session unlock before the table-level release, so the two mutexes are
// never held together).
func (s *Service) acquireSession(id string) (*session, func(), error) {
	s.mu.Lock()
	sess := s.sessions[id]
	if sess == nil {
		s.mu.Unlock()
		return nil, nil, badRequestf("unknown session %q", id)
	}
	sess.inflight++
	sess.lastUse = s.now()
	s.mu.Unlock()
	release := func() {
		s.mu.Lock()
		sess.inflight--
		sess.lastUse = s.now()
		s.mu.Unlock()
	}
	return sess, release, nil
}

// EditSpec is one graph edit on the wire; Kind selects which fields apply,
// mirroring bog's edit constructors exactly.
type EditSpec struct {
	Kind  string  `json:"kind"`            // set-fanin | set-op | insert
	Node  int32   `json:"node,omitempty"`  // set-fanin, set-op
	Slot  int     `json:"slot,omitempty"`  // set-fanin
	To    int32   `json:"to,omitempty"`    // set-fanin (-1 = nil)
	Op    string  `json:"op,omitempty"`    // set-op, insert
	Fanin []int32 `json:"fanin,omitempty"` // insert
}

// parseOp maps the wire op name onto bog's operator alphabet.
func parseOp(name string) (bog.Op, error) {
	ops := []bog.Op{bog.Const0, bog.Const1, bog.Input, bog.RegQ, bog.Not, bog.And, bog.Or, bog.Xor, bog.Mux}
	for _, op := range ops {
		if name == op.String() {
			return op, nil
		}
	}
	return 0, fmt.Errorf("unknown op %q", name)
}

// parseDelta converts one wire edit batch into the bog.Delta that
// RepResult.Edit (and EditKey) consume.
func parseDelta(specs []EditSpec) (bog.Delta, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("edit wants at least one edit")
	}
	delta := make(bog.Delta, 0, len(specs))
	for i, e := range specs {
		switch e.Kind {
		case "set-fanin":
			delta = append(delta, bog.SetFaninEdit(bog.NodeID(e.Node), e.Slot, bog.NodeID(e.To)))
		case "set-op":
			op, err := parseOp(e.Op)
			if err != nil {
				return nil, fmt.Errorf("edit %d: %w", i, err)
			}
			delta = append(delta, bog.SetOpEdit(bog.NodeID(e.Node), op))
		case "insert":
			op, err := parseOp(e.Op)
			if err != nil {
				return nil, fmt.Errorf("edit %d: %w", i, err)
			}
			fanin := make([]bog.NodeID, len(e.Fanin))
			for j, f := range e.Fanin {
				fanin[j] = bog.NodeID(f)
			}
			delta = append(delta, bog.InsertEdit(op, fanin...))
		default:
			return nil, fmt.Errorf("edit %d: unknown kind %q (want set-fanin, set-op or insert)", i, e.Kind)
		}
	}
	return delta, nil
}

// SessionEditRequest applies one edit batch — one RepResult.Edit call — to
// the session head.
type SessionEditRequest struct {
	Session string     `json:"session"`
	Edits   []EditSpec `json:"edits"`
}

// SessionEdit advances the session's chain by one delta. The response
// chain is engine.EditKey applied to the previous chain, so the mapping
// between session history and cache identity is exact. A canceled wait
// leaves the session untouched: the chain advances only on a completed
// derivation, and the detached derivation (cancel.go) stays cached for
// the retry.
func (s *Service) SessionEdit(ctx context.Context, req SessionEditRequest) (*SessionState, error) {
	sess, release, err := s.acquireSession(req.Session)
	if err != nil {
		return nil, err
	}
	defer release()
	delta, derr := parseDelta(req.Edits)
	if derr != nil {
		return nil, badRequest(derr)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	head, eerr := sess.head.EditCtx(ctx, delta)
	if eerr != nil {
		return nil, classifyEngineErr(fmt.Errorf("session %s depth %d: %w", req.Session, sess.depth, eerr))
	}
	sess.head = head
	sess.chain = engine.EditKey(sess.chain, delta)
	sess.depth++
	return s.state(req.Session, sess), nil
}

// SessionEvalRequest asks for the session head's verdict at one period.
type SessionEvalRequest struct {
	Session string  `json:"session"`
	Period  float64 `json:"period"`
}

// SessionEvalResponse is the session-head analog of one VariantResult.
type SessionEvalResponse struct {
	State  SessionState  `json:"state"`
	Period float64       `json:"period"`
	Result VariantResult `json:"result"`
}

// SessionEval evaluates the current head without advancing the chain.
func (s *Service) SessionEval(ctx context.Context, req SessionEvalRequest) (*SessionEvalResponse, error) {
	if !(req.Period > 0) || math.IsInf(req.Period, 1) {
		return nil, badRequestf("session eval wants a finite positive period, got %v", req.Period)
	}
	sess, release, err := s.acquireSession(req.Session)
	if err != nil {
		return nil, err
	}
	defer release()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return &SessionEvalResponse{
		State:  *s.state(req.Session, sess),
		Period: req.Period,
		Result: variantResult(sess.variant, sess.head, req.Period),
	}, nil
}

// SessionClose drops the session; its cache entries stay warm for the next
// client that replays the same chain.
func (s *Service) SessionClose(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return badRequestf("unknown session %q", id)
	}
	if sess.inflight == 0 {
		// Release the derived-entry reference now; with a request still in
		// flight the request's own reference keeps it alive and the table
		// removal below is what matters.
		sess.head = nil
	}
	delete(s.sessions, id)
	return nil
}

// SessionIDs lists open sessions in stable order (tests, /stats detail).
func (s *Service) SessionIDs() []string {
	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	return ids
}
