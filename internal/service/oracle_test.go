// Retained oracles for the warm query path and the tests that hold the
// fast path to them bit for bit: the one-float-per-Write arrival hash
// behind engine.(*RepResult).ArrivalDigest, the per-probe At search behind
// FmaxSearch, and the At-based renderers behind every /eval, /sweep,
// /fmax and /session/eval answer.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/elab"
	"rtltimer/internal/engine"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
	"rtltimer/internal/verilog"
)

// arrivalDigest is the retained digest oracle: SHA-256 over the raw
// IEEE-754 bits of the arrival vector, hashed 8 bytes per Write.
func arrivalDigest(arrival []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, a := range arrival {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fmaxSearchAt is the retained fmax oracle: the same bracketing and
// bisection as FmaxSearch, with every probe materialized through At.
func fmaxSearchAt(rr *engine.RepResult) (period float64, ok bool) {
	hi := 1.0
	for rr.At(hi).WNS < 0 {
		hi *= 2
		if hi > 1e6 {
			return 0, false
		}
	}
	lo := 0.0
	for hi-lo > 1e-4 {
		mid := (lo + hi) / 2
		if rr.At(mid).WNS >= 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// oracleResult is one VariantResult computed through At and the oracle
// digest.
func oracleResult(v bog.Variant, rr *engine.RepResult, period float64) VariantResult {
	r := rr.At(period)
	return VariantResult{
		Variant:       v.String(),
		WNS:           r.WNS,
		TNS:           r.TNS,
		Endpoints:     len(rr.Graph.Endpoints),
		ArrivalSHA256: arrivalDigest(rr.Arrival),
	}
}

// renderSweepAt is the At-based sweep renderer oracle.
func renderSweepAt(w io.Writer, name string, reps map[bog.Variant]*engine.RepResult, periods []float64) {
	fmt.Fprintf(w, "design %s: pseudo-STA period sweep (%d points)\n\n", name, len(periods))
	fmt.Fprintf(w, "%-10s", "period")
	for _, v := range bog.Variants() {
		fmt.Fprintf(w, "  %9s  %9s", v.String()+" WNS", v.String()+" TNS")
	}
	fmt.Fprintln(w)
	for _, p := range periods {
		fmt.Fprintf(w, "%-10.3f", p)
		for _, v := range bog.Variants() {
			r := reps[v].At(p)
			fmt.Fprintf(w, "  %9.3f  %9.2f", r.WNS, r.TNS)
		}
		fmt.Fprintln(w)
	}
}

// oracleFmax is the /fmax answer built from fmaxSearchAt.
func oracleFmax(name string, reps map[bog.Variant]*engine.RepResult) *FmaxResponse {
	resp := &FmaxResponse{Design: name}
	var b strings.Builder
	fmt.Fprintf(&b, "design %s: pseudo-STA maximum frequency\n\n", name)
	for _, v := range bog.Variants() {
		rr := reps[v]
		fv := FmaxVariant{Variant: v.String()}
		switch {
		case len(rr.Graph.Endpoints) == 0:
			fmt.Fprintf(&b, "  %-5s no timing endpoints (design is unconstrained)\n", v)
		default:
			p, ok := fmaxSearchAt(rr)
			if !ok {
				fmt.Fprintf(&b, "  %-5s no feasible period below the search ceiling\n", v)
				break
			}
			fv.Feasible, fv.Period, fv.FmaxGHz = true, p, 1/p
			fmt.Fprintf(&b, "  %-5s critical period %.4f ns  ->  fmax %.3f GHz\n", v, p, 1/p)
		}
		resp.Results = append(resp.Results, fv)
	}
	resp.Text = b.String()
	return resp
}

// corpusSpecs is every built-in design, or the first four under -short.
func corpusSpecs() []designs.Spec {
	all := designs.All()
	if testing.Short() {
		all = all[:4]
	}
	return all
}

// literalReps builds every variant of spec outside any engine, as struct
// literals carrying only the timing state.
func literalReps(t *testing.T, spec designs.Spec) map[bog.Variant]*engine.RepResult {
	t.Helper()
	parsed, err := verilog.Parse(designs.Generate(spec))
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	d, err := elab.Elaborate(parsed)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	out := map[bog.Variant]*engine.RepResult{}
	for _, v := range bog.Variants() {
		g, err := bog.Build(d, v)
		if err != nil {
			t.Fatalf("%s/%v: %v", spec.Name, v, err)
		}
		an := sta.NewAnalyzer(g, liberty.DefaultPseudoLib())
		out[v] = &engine.RepResult{Graph: g, An: an, Arrival: an.Arrivals(1)}
	}
	return out
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireDigest checks one result's memoized digest against the oracle,
// twice (the second call is served from the memo).
func requireDigest(t *testing.T, what string, rr *engine.RepResult) {
	t.Helper()
	want := arrivalDigest(rr.Arrival)
	for i := 0; i < 2; i++ {
		if got := rr.ArrivalDigest(); got != want {
			t.Fatalf("%s: ArrivalDigest call %d = %s, oracle %s", what, i+1, got, want)
		}
	}
}

// TestFmaxSearchMatchesAtSearch: the closed-form probe must return exactly
// the per-probe At search's answer on every corpus design × variant; the
// same literal-built results check the digest memo against the oracle.
func TestFmaxSearchMatchesAtSearch(t *testing.T) {
	for _, spec := range corpusSpecs() {
		for v, rr := range literalReps(t, spec) {
			gotP, gotOK := FmaxSearch(rr)
			wantP, wantOK := fmaxSearchAt(rr)
			if gotOK != wantOK || math.Float64bits(gotP) != math.Float64bits(wantP) {
				t.Fatalf("%s/%v: FmaxSearch %v/%v, At search %v/%v", spec.Name, v, gotP, gotOK, wantP, wantOK)
			}
			requireDigest(t, fmt.Sprintf("%s/%v literal", spec.Name, v), rr)
		}
	}
}

// TestFmaxSearchNoEndpoints: without endpoints every probe is feasible
// (WNS 0), exactly as the At search sees it.
func TestFmaxSearchNoEndpoints(t *testing.T) {
	g := bog.NewGraph("no-endpoints", bog.AIG)
	sig := g.AddSigName("in")
	g.AndOf(g.NewInput(sig, 0), g.NewInput(sig, 1))
	an := sta.NewAnalyzer(g, liberty.DefaultPseudoLib())
	rr := &engine.RepResult{Graph: g, An: an, Arrival: an.Arrivals(1)}
	gotP, gotOK := FmaxSearch(rr)
	wantP, wantOK := fmaxSearchAt(rr)
	if gotOK != wantOK || math.Float64bits(gotP) != math.Float64bits(wantP) {
		t.Fatalf("FmaxSearch %v/%v, At search %v/%v", gotP, gotOK, wantP, wantOK)
	}
}

// shardLocalEdit derives an edit of rr that the engine routes to a single
// shard, trying two-input nodes until the shard-local counter moves.
func shardLocalEdit(t *testing.T, eng *engine.Engine, rr *engine.RepResult) *engine.RepResult {
	t.Helper()
	g := rr.Graph
	tried := 0
	for i := len(g.Nodes) - 1; i >= 0 && tried < 64; i-- {
		nd := &g.Nodes[i]
		if nd.NumFanin() < 2 || nd.Fanin[0] == nd.Fanin[1] {
			continue
		}
		tried++
		before := eng.Stats().ShardEdits
		ed, err := rr.Edit(bog.Delta{bog.SetFaninEdit(bog.NodeID(i), 0, nd.Fanin[1])})
		if err != nil {
			t.Fatal(err)
		}
		if eng.Stats().ShardEdits > before {
			return ed
		}
	}
	t.Fatal("no shard-local edit found")
	return nil
}

// TestArrivalDigestMatchesOracle: every way a RepResult comes to exist —
// a cold build, a disk reload, a full-graph edit, a shard-local edit,
// Detached copies and a struct literal — reports the oracle digest.
func TestArrivalDigestMatchesOracle(t *testing.T) {
	name := benchNames(t, 1)[0]
	src := designs.Generate(mustSpec(t, name))
	ctx := context.Background()
	dir := t.TempDir()

	cold := engine.New(2)
	cold.SetShards(1)
	cold.SetCacheDir(dir)
	built, err := BuildSweepReps(ctx, cold, name, src)
	if err != nil {
		t.Fatal(err)
	}
	warm := engine.New(2)
	warm.SetShards(4)
	warm.SetCacheDir(dir)
	reloaded, err := BuildSweepReps(ctx, warm, name, src)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Builds != 0 || st.DiskHits != int64(len(bog.Variants())) {
		t.Fatalf("reload stats %+v, want only disk hits", st)
	}
	for _, v := range bog.Variants() {
		requireDigest(t, fmt.Sprintf("%v built", v), built[v])
		requireDigest(t, fmt.Sprintf("%v reloaded", v), reloaded[v])
		requireDigest(t, fmt.Sprintf("%v detached", v), built[v].Detached())
		lit := &engine.RepResult{Graph: built[v].Graph, An: built[v].An, Arrival: built[v].Arrival}
		requireDigest(t, fmt.Sprintf("%v literal", v), lit)
	}

	_, delta := sessionDelta(t, built[bog.SOG].Graph)
	full, err := built[bog.SOG].Edit(delta)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats().ShardEdits != 0 {
		t.Fatal("monolithic engine derived shard-locally")
	}
	requireDigest(t, "full-graph derived", full)
	detachedEdit, err := built[bog.SOG].Detached().Edit(delta)
	if err != nil {
		t.Fatal(err)
	}
	requireDigest(t, "detached derived", detachedEdit)
	if full.ArrivalDigest() != detachedEdit.ArrivalDigest() {
		t.Fatal("cached and detached derivations of one delta disagree")
	}

	if !reloaded[bog.AIG].Sharded() {
		t.Fatal("4-shard reload carries no shard view")
	}
	requireDigest(t, "shard-local derived", shardLocalEdit(t, warm, reloaded[bog.AIG]))
}

// TestArrivalDigestConcurrentFirstCalls: many goroutines racing on a
// fresh result's first ArrivalDigest call all get the oracle digest (run
// under -race, this also checks the memo is race-free).
func TestArrivalDigestConcurrentFirstCalls(t *testing.T) {
	reps := literalReps(t, mustSpec(t, benchNames(t, 1)[0]))
	pool := engine.New(8)
	for _, v := range bog.Variants() {
		src := reps[v]
		want := arrivalDigest(src.Arrival)
		fresh := []*engine.RepResult{
			{Graph: src.Graph, An: src.An, Arrival: src.Arrival},
			src.Detached(),
		}
		for _, rr := range fresh {
			got := make([]string, 16)
			pool.ForEach(len(got), func(i int) { got[i] = rr.ArrivalDigest() })
			for i, d := range got {
				if d != want {
					t.Fatalf("%v caller %d: %s, oracle %s", v, i, d, want)
				}
			}
		}
	}
}

// TestWireBytesMatchOracles: on every corpus design the service's /eval,
// /sweep, /fmax and /session/eval answers marshal to exactly the bytes the
// At-based oracles produce.
func TestWireBytesMatchOracles(t *testing.T) {
	ctx := context.Background()
	svc := newService(t, Config{Jobs: 2})
	const sweep = "0.2:1.4:7"
	periods, _ := ParseSweep(sweep)
	for _, spec := range corpusSpecs() {
		ref := DesignRef{Bench: spec.Name}
		reps, err := BuildSweepReps(ctx, svc.Engine(), spec.Name, designs.Generate(spec))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []float64{0.3, 0.55, 1.2} {
			got, err := svc.Eval(ctx, EvalRequest{Design: ref, Period: p})
			if err != nil {
				t.Fatal(err)
			}
			want := &EvalResponse{Design: spec.Name, Period: p}
			for _, v := range bog.Variants() {
				want.Results = append(want.Results, oracleResult(v, reps[v], p))
			}
			if !bytes.Equal(mustMarshal(t, got), mustMarshal(t, want)) {
				t.Fatalf("%s /eval at %v:\n%s\n--- oracle ---\n%s", spec.Name, p, mustMarshal(t, got), mustMarshal(t, want))
			}
		}

		sw, err := svc.Sweep(ctx, SweepRequest{Design: ref, Sweep: sweep})
		if err != nil {
			t.Fatal(err)
		}
		var wantSweep strings.Builder
		renderSweepAt(&wantSweep, spec.Name, reps, periods)
		if sw.Text != wantSweep.String() {
			t.Fatalf("%s /sweep:\n%s\n--- oracle ---\n%s", spec.Name, sw.Text, wantSweep.String())
		}

		fm, err := svc.Fmax(ctx, FmaxRequest{Design: ref})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mustMarshal(t, fm), mustMarshal(t, oracleFmax(spec.Name, reps)); !bytes.Equal(got, want) {
			t.Fatalf("%s /fmax:\n%s\n--- oracle ---\n%s", spec.Name, got, want)
		}

		st, err := svc.SessionOpen(ctx, SessionOpenRequest{Design: ref, Variant: "SOG"})
		if err != nil {
			t.Fatal(err)
		}
		head := reps[bog.SOG]
		specs, delta := sessionDelta(t, head.Graph)
		for depth := 0; depth < 2; depth++ {
			ev, err := svc.SessionEval(ctx, SessionEvalRequest{Session: st.Session, Period: 0.55})
			if err != nil {
				t.Fatal(err)
			}
			want := oracleResult(bog.SOG, head, 0.55)
			if got := mustMarshal(t, ev.Result); !bytes.Equal(got, mustMarshal(t, want)) {
				t.Fatalf("%s /session/eval depth %d:\n%s\n--- oracle ---\n%+v", spec.Name, depth, got, want)
			}
			if depth == 0 {
				if _, err := svc.SessionEdit(ctx, SessionEditRequest{Session: st.Session, Edits: specs}); err != nil {
					t.Fatal(err)
				}
				if head, err = head.Edit(delta); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := svc.SessionClose(st.Session); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvalRejectsRepeatedVariant: /eval names each variant at most once —
// a repeat (case-insensitively) is a 400 naming it, answered before any
// build — while a list of distinct names keeps its order.
func TestEvalRejectsRepeatedVariant(t *testing.T) {
	svc := newService(t, Config{Jobs: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	name := benchNames(t, 1)[0]

	code, body := postJSON(t, srv.Client(), srv.URL+"/eval", EvalRequest{
		Design: DesignRef{Bench: name}, Period: 0.55, Variants: []string{"SOG", "aig", "AIG"},
	})
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || code != http.StatusBadRequest || !strings.Contains(er.Error, `"AIG"`) {
		t.Fatalf("repeated variant: %d %s, want 400 naming \"AIG\"", code, body)
	}
	if b := svc.Engine().Stats().Builds; b != 0 {
		t.Fatalf("rejected request ran %d builds", b)
	}

	order := []string{"XAG", "sog", "AIMG", "AIG"}
	code, body = postJSON(t, srv.Client(), srv.URL+"/eval", EvalRequest{
		Design: DesignRef{Bench: name}, Period: 0.55, Variants: order,
	})
	if code != http.StatusOK {
		t.Fatalf("distinct variants: %d %s", code, body)
	}
	var resp EvalResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(order) {
		t.Fatalf("%d results for %d variants", len(resp.Results), len(order))
	}
	for i, r := range resp.Results {
		if !strings.EqualFold(r.Variant, order[i]) {
			t.Fatalf("result %d is %s, want %s", i, r.Variant, order[i])
		}
	}
}
