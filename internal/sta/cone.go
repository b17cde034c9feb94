package sta

import "rtltimer/internal/bog"

// ConeInfo summarizes an endpoint's input cone (paper Table 2 cone-level
// features).
type ConeInfo struct {
	Nodes       int // combinational nodes in the cone
	DrivingRegs int // distinct register bits driving the cone
	Inputs      int // distinct primary-input bits driving the cone
}

// InputCone walks backward from the endpoint's D pin to all timing sources.
// It is the retained oracle for ConeWalker: one fresh visited map per call,
// so it is simple to trust and expensive to sweep over every endpoint.
func InputCone(g *bog.Graph, ep int) ConeInfo {
	var info ConeInfo
	seen := map[bog.NodeID]bool{}
	stack := []bog.NodeID{g.Endpoints[ep].D}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		nd := &g.Nodes[cur]
		switch nd.Op {
		case bog.RegQ:
			info.DrivingRegs++
			continue
		case bog.Input:
			info.Inputs++
			continue
		case bog.Const0, bog.Const1:
			continue
		}
		info.Nodes++
		for j := 0; j < nd.NumFanin(); j++ {
			stack = append(stack, nd.Fanin[j])
		}
	}
	return info
}

// ConeWalker is the cone kernel: it walks the input cones of one graph's
// endpoints with a single epoch-stamped visited array and one reused
// stack, so sweeping every endpoint costs two allocations instead of a
// fresh map per cone. Every walk takes a new epoch; a node counts as
// visited only while its stamp equals the current epoch, so the array is
// never cleared between walks (only when the uint32 epoch wraps). Cone
// returns exactly what InputCone returns.
//
// A ConeWalker is single-owner scratch: it must not be shared across
// goroutines, and it must not outlive edits to its graph.
type ConeWalker struct {
	g     *bog.Graph
	mark  []uint32
	epoch uint32
	stack []bog.NodeID
}

// NewConeWalker returns a walker over g's nodes and endpoints.
func NewConeWalker(g *bog.Graph) *ConeWalker {
	return &ConeWalker{g: g, mark: make([]uint32, len(g.Nodes))}
}

// nextEpoch starts a new walk: every node becomes unvisited.
func (w *ConeWalker) nextEpoch() uint32 {
	w.epoch++
	if w.epoch == 0 {
		clear(w.mark)
		w.epoch = 1
	}
	return w.epoch
}

// Cone walks backward from endpoint ep's D pin to all timing sources.
// Nodes are stamped when pushed, so each is pushed at most once; the
// counts do not depend on visit order.
func (w *ConeWalker) Cone(ep int) ConeInfo {
	var info ConeInfo
	epoch := w.nextEpoch()
	mark, nodes := w.mark, w.g.Nodes
	d := w.g.Endpoints[ep].D
	mark[d] = epoch
	stack := append(w.stack[:0], d)
	for len(stack) > 0 {
		nd := &nodes[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		switch nd.Op {
		case bog.RegQ:
			info.DrivingRegs++
			continue
		case bog.Input:
			info.Inputs++
			continue
		case bog.Const0, bog.Const1:
			continue
		}
		info.Nodes++
		for j := 0; j < nd.NumFanin(); j++ {
			if f := nd.Fanin[j]; mark[f] != epoch {
				mark[f] = epoch
				stack = append(stack, f)
			}
		}
	}
	w.stack = stack
	return info
}

// EndpointsReaching returns, ascending, the endpoints whose input cone
// contains at least one seed: one forward walk from the seeds, then one
// scan of the endpoint D pins. fanout(n) must list every consumer of node
// n in the walker's graph (an Incremental session's maintained adjacency
// qualifies); each slice it returns is read only until its next call.
func (w *ConeWalker) EndpointsReaching(seeds []bog.NodeID, fanout func(bog.NodeID) []bog.NodeID) []int {
	if len(seeds) == 0 {
		return nil
	}
	epoch := w.nextEpoch()
	mark := w.mark
	stack := w.stack[:0]
	for _, s := range seeds {
		if mark[s] != epoch {
			mark[s] = epoch
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range fanout(n) {
			if mark[c] != epoch {
				mark[c] = epoch
				stack = append(stack, c)
			}
		}
	}
	w.stack = stack
	var eps []int
	for ep := range w.g.Endpoints {
		if mark[w.g.Endpoints[ep].D] == epoch {
			eps = append(eps, ep)
		}
	}
	return eps
}
