package sta_test

import (
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/sta"
)

// TestConeWalkerMatchesInputCone: the cone kernel must return exactly the
// retained map-based oracle's ConeInfo for every endpoint of every seed
// design under every variant — swept forwards and then backwards through
// one walker, so stale epoch stamps from earlier walks cannot leak into
// later ones.
func TestConeWalkerMatchesInputCone(t *testing.T) {
	for _, g := range seedGraphs(t) {
		w := sta.NewConeWalker(g)
		want := make([]sta.ConeInfo, len(g.Endpoints))
		for ep := range g.Endpoints {
			want[ep] = sta.InputCone(g, ep)
			if got := w.Cone(ep); got != want[ep] {
				t.Fatalf("%s/%v ep %d: kernel %+v, oracle %+v", g.Design, g.Variant, ep, got, want[ep])
			}
		}
		for ep := len(g.Endpoints) - 1; ep >= 0; ep-- {
			if got := w.Cone(ep); got != want[ep] {
				t.Fatalf("%s/%v ep %d (reverse sweep): kernel %+v, oracle %+v", g.Design, g.Variant, ep, got, want[ep])
			}
		}
	}
}

// TestEndpointsReaching: the forward walk must select exactly the
// endpoints whose input cone contains a seed, checked against a per-
// endpoint backward membership walk.
func TestEndpointsReaching(t *testing.T) {
	graphs := seedGraphs(t)
	if len(graphs) > 8 {
		graphs = graphs[:8]
	}
	for _, g := range graphs {
		c := g.CSR()
		fanout := func(n bog.NodeID) []bog.NodeID { return c.Fanout[c.FanoutStart[n]:c.FanoutStart[n+1]] }
		w := sta.NewConeWalker(g)
		n := len(g.Nodes)
		for _, seeds := range [][]bog.NodeID{
			nil,
			{g.Endpoints[0].D},
			{bog.NodeID(n / 3)},
			{bog.NodeID(n / 2), bog.NodeID(n - 1), bog.NodeID(n / 2)},
		} {
			got := w.EndpointsReaching(seeds, fanout)
			var want []int
			for ep := range g.Endpoints {
				if coneContains(g, ep, seeds) {
					want = append(want, ep)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%v seeds %v: %d endpoints, want %d", g.Design, g.Variant, seeds, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s/%v seeds %v: endpoint %d is %d, want %d", g.Design, g.Variant, seeds, i, got[i], want[i])
				}
			}
		}
	}
}

// coneContains reports whether endpoint ep's input cone (InputCone's
// walk: backward from D, stopping at sources) contains any seed.
func coneContains(g *bog.Graph, ep int, seeds []bog.NodeID) bool {
	want := map[bog.NodeID]bool{}
	for _, s := range seeds {
		want[s] = true
	}
	seen := map[bog.NodeID]bool{}
	stack := []bog.NodeID{g.Endpoints[ep].D}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		if want[cur] {
			return true
		}
		nd := &g.Nodes[cur]
		for j := 0; j < nd.NumFanin(); j++ {
			stack = append(stack, nd.Fanin[j])
		}
	}
	return false
}
