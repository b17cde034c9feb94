package engine

import (
	"math"
	"math/rand"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/features"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
)

// coneChainHops is the edit-chain length per base in
// TestEditChainConesMatchFreshExtractor.
const coneChainHops = 200

// randomConeDelta draws one valid delta for g from a mix of fanin
// re-points (on random operators and on endpoint D pins), op swaps,
// inserts followed by a re-point of the inserted node, and re-points of
// nodes earlier hops inserted (dead logic: no endpoint reaches them).
// baseNodes is the node count before the chain's first hop.
func randomConeDelta(rng *rand.Rand, g *bog.Graph, baseNodes int) bog.Delta {
	n := len(g.Nodes)
	pick := func(ok func(*bog.Node) bool) bog.NodeID {
		for {
			id := bog.NodeID(2 + rng.Intn(n-2))
			if ok(&g.Nodes[id]) {
				return id
			}
		}
	}
	isOp := func(nd *bog.Node) bool { return nd.NumFanin() > 0 }
	switch rng.Intn(6) {
	case 0:
		// Re-point an endpoint's D pin directly.
		for tries := 0; tries < 16; tries++ {
			d := g.Endpoints[rng.Intn(len(g.Endpoints))].D
			if nd := &g.Nodes[d]; isOp(nd) {
				return bog.Delta{bog.SetFaninEdit(d, rng.Intn(nd.NumFanin()), bog.NodeID(rng.Intn(int(d))))}
			}
		}
	case 1:
		// Swap a two-input operator for another one the variant allows.
		id := pick(func(nd *bog.Node) bool { return nd.NumFanin() == 2 })
		alts := []bog.Op{bog.And, bog.Or, bog.Xor}
		for {
			if op := alts[rng.Intn(len(alts))]; op != g.Nodes[id].Op {
				return bog.Delta{bog.SetOpEdit(id, op)}
			}
		}
	case 2:
		// Insert a node, then re-point one of its fanins.
		a, b := bog.NodeID(rng.Intn(n)), bog.NodeID(rng.Intn(n))
		return bog.Delta{
			bog.InsertEdit(bog.And, a, b),
			bog.SetFaninEdit(bog.NodeID(n), rng.Intn(2), bog.NodeID(rng.Intn(n))),
		}
	case 3:
		// Re-point a node an earlier hop inserted.
		if n > baseNodes {
			id := bog.NodeID(baseNodes + rng.Intn(n-baseNodes))
			return bog.Delta{bog.SetFaninEdit(id, rng.Intn(g.Nodes[id].NumFanin()), bog.NodeID(rng.Intn(int(id))))}
		}
	}
	// A two-edit re-point: a later edit may cut the path the first one
	// opened, which the affected-set argument must survive.
	var d bog.Delta
	for k := 0; k < 2; k++ {
		id := pick(isOp)
		d = append(d, bog.SetFaninEdit(id, rng.Intn(g.Nodes[id].NumFanin()), bog.NodeID(rng.Intn(int(id)))))
	}
	return d
}

// affectedEndpoints recomputes a delta's affected set independently of
// the engine: a forward walk over the edited graph's CSR fanout from
// every rewritten node.
func affectedEndpoints(g2 *bog.Graph, delta bog.Delta) []int {
	var seeds []bog.NodeID
	for _, e := range delta {
		if e.Kind != bog.EditInsert {
			seeds = append(seeds, e.Node)
		}
	}
	c := g2.CSR()
	return sta.NewConeWalker(g2).EndpointsReaching(seeds, func(n bog.NodeID) []bog.NodeID {
		return c.Fanout[c.FanoutStart[n]:c.FanoutStart[n+1]]
	})
}

// TestEditChainConesMatchFreshExtractor is the oracle property test for
// edit-proportional cone re-walks: a seeded random chain of edits on a
// sharded and on a monolithic base must, after every hop, carry extractor
// cones and rank percentiles equal to a fresh features.NewExtractor on
// the edited graph. The chain mixes fanin re-points, op swaps and
// insert-then-re-point deltas, and must include hops whose affected
// endpoint set is empty and hops that rewrite an endpoint's D pin.
func TestEditChainConesMatchFreshExtractor(t *testing.T) {
	d, src := buildDesign(t)
	lib := liberty.DefaultPseudoLib()
	for _, shards := range []int{1, 4} {
		e := New(1)
		e.SetShards(shards)
		rr, err := e.EvalRep(Key{Design: DesignTag(d.Name, src), Variant: bog.SOG}, lib, FixedDesign(d))
		if err != nil {
			t.Fatal(err)
		}
		if got := rr.Sharded(); got != (shards > 1) {
			t.Fatalf("shards=%d: Sharded() = %v", shards, got)
		}
		rng := rand.New(rand.NewSource(int64(12 + shards)))
		baseNodes := len(rr.Graph.Nodes)
		var empty, hitD, routed int
		cur := rr
		for hop := 0; hop < coneChainHops; hop++ {
			delta := randomConeDelta(rng, cur.Graph, baseNodes)
			// On the sharded base, retry a few draws to favour deltas
			// that route to one shard, so both derivation paths run.
			if p := cur.partition(); p != nil && hop%2 == 0 {
				for tries := 0; tries < 32 && cur.routeShard(p, delta) < 0; tries++ {
					delta = randomConeDelta(rng, cur.Graph, baseNodes)
				}
				if cur.routeShard(p, delta) >= 0 {
					routed++
				}
			}
			for _, ed := range delta {
				for _, ep := range cur.Graph.Endpoints {
					if ed.Kind == bog.EditSetFanin && ed.Node == ep.D {
						hitD++
					}
				}
			}
			next, err := cur.Edit(delta)
			if err != nil {
				t.Fatalf("shards=%d hop %d %v: %v", shards, hop, delta, err)
			}
			if len(affectedEndpoints(next.Graph, delta)) == 0 {
				empty++
			}
			fresh := features.NewExtractor(next.Graph, next.At(0))
			fc, fr := fresh.State()
			dc, dr := next.Ext.State()
			if len(fc) != len(dc) || len(fr) != len(dr) {
				t.Fatalf("shards=%d hop %d: state covers %d/%d endpoints, want %d/%d",
					shards, hop, len(dc), len(dr), len(fc), len(fr))
			}
			for i := range fc {
				if fc[i] != dc[i] {
					t.Fatalf("shards=%d hop %d %v: cone %d = %+v, fresh %+v", shards, hop, delta, i, dc[i], fc[i])
				}
				if math.Float64bits(fr[i]) != math.Float64bits(dr[i]) {
					t.Fatalf("shards=%d hop %d %v: rank %d = %v, fresh %v", shards, hop, delta, i, dr[i], fr[i])
				}
			}
			cur = next
		}
		st := e.Stats()
		t.Logf("shards=%d: %d hops, %d routable, %d shard-local, %d empty affected sets, %d D-pin rewrites",
			shards, coneChainHops, routed, st.ShardEdits, empty, hitD)
		if empty == 0 || hitD == 0 {
			t.Fatalf("shards=%d: chain lacks coverage: %d empty affected sets, %d D-pin rewrites", shards, empty, hitD)
		}
		if shards > 1 && st.ShardEdits == 0 {
			t.Fatalf("shards=%d: no hop derived shard-locally (stats %+v)", shards, st)
		}
	}
}
