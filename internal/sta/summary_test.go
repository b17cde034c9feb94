package sta_test

import (
	"math"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
)

// sameSummary requires Summary's WNS/TNS to equal At's bit for bit.
func sameSummary(t *testing.T, g *bog.Graph, an *sta.Analyzer, arr []float64, period float64) {
	t.Helper()
	wns, tns := an.Summary(arr, period)
	r := an.At(arr, period)
	if math.Float64bits(wns) != math.Float64bits(r.WNS) || math.Float64bits(tns) != math.Float64bits(r.TNS) {
		t.Fatalf("%s/%v period %v: Summary %v/%v, At %v/%v", g.Design, g.Variant, period, wns, tns, r.WNS, r.TNS)
	}
}

// TestSummaryMatchesAt: the allocation-free WNS/TNS must be bit-identical
// to At's for every seed design under every variant, at periods below, at
// and above the critical period (where the worst slack crosses zero).
func TestSummaryMatchesAt(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	for _, g := range seedGraphs(t) {
		an := sta.NewAnalyzer(g, lib)
		arr := an.Arrivals(1)
		maxAT := math.Inf(-1)
		for _, ep := range g.Endpoints {
			maxAT = max(maxAT, arr[ep.D])
		}
		crit := maxAT + lib.Setup
		for _, p := range []float64{
			0.01, crit / 2, math.Nextafter(crit, 0), crit, math.Nextafter(crit, math.Inf(1)),
			crit * 1.5, crit * 4,
		} {
			sameSummary(t, g, an, arr, p)
		}
	}
}

// TestSummaryNoEndpoints: a graph without timing endpoints reports
// WNS = TNS = 0 through both paths.
func TestSummaryNoEndpoints(t *testing.T) {
	g := bog.NewGraph("no-endpoints", bog.AIG)
	sig := g.AddSigName("in")
	g.AndOf(g.NewInput(sig, 0), g.NewInput(sig, 1))
	an := sta.NewAnalyzer(g, liberty.DefaultPseudoLib())
	arr := an.Arrivals(1)
	for _, p := range []float64{0.1, 1, 10} {
		sameSummary(t, g, an, arr, p)
		if wns, tns := an.Summary(arr, p); wns != 0 || tns != 0 {
			t.Fatalf("period %v: WNS/TNS %v/%v without endpoints, want 0/0", p, wns, tns)
		}
	}
}

// TestSummaryAllocatesNothing pins the point of Summary: no per-call
// allocation, unlike At's two endpoint-sized slices.
func TestSummaryAllocatesNothing(t *testing.T) {
	g := seedGraphs(t)[0]
	an := sta.NewAnalyzer(g, liberty.DefaultPseudoLib())
	arr := an.Arrivals(1)
	if n := testing.AllocsPerRun(10, func() { an.Summary(arr, 0.5) }); n != 0 {
		t.Fatalf("Summary allocates %v times per call, want 0", n)
	}
}
