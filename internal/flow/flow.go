// Package flow implements min-cost flow on small networks, supporting edge
// lower bounds and negative edge costs.
//
// The group-by aggregate consensus algorithm of Section 6.1 needs exactly
// this: the network built from Lemma 3 has edges e1(v, t) whose lower and
// upper capacity bounds are both floor(rbar[v]) and edges e2(v, t) whose
// cost (ceil(rbar[v]) - rbar[v])^2 - (floor(rbar[v]) - rbar[v])^2 is
// negative whenever the fractional part of rbar[v] exceeds 1/2.
//
// The solver reduces the problem to a plain min-cost max-flow instance with
// non-negative costs: lower bounds are split off as mandatory flow
// (shifting node balances), negative-cost edges are pre-saturated and
// replaced by their positive-cost reversal, and the resulting balance
// vector is routed from a super-source to a super-sink with successive
// shortest paths (Dijkstra with Johnson potentials).
package flow

import (
	"container/heap"
	"fmt"
	"math"
)

// Graph is a flow network under construction.  Nodes are integers
// 0..n-1; use AddEdge to add directed edges and Circulation to solve.
type Graph struct {
	n     int
	edges []inputEdge
}

type inputEdge struct {
	from, to int
	low, cap int
	cost     float64
}

// NewGraph returns an empty network on n nodes.
func NewGraph(n int) *Graph { return &Graph{n: n} }

// AddEdge adds a directed edge with flow bounds low <= f <= cap and the
// given per-unit cost, returning an edge handle for Flow lookups.
func (g *Graph) AddEdge(from, to, low, cap int, cost float64) (int, error) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return 0, fmt.Errorf("flow: edge endpoints (%d,%d) out of range [0,%d)", from, to, g.n)
	}
	if low < 0 || cap < low {
		return 0, fmt.Errorf("flow: invalid bounds low=%d cap=%d", low, cap)
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		return 0, fmt.Errorf("flow: invalid cost %v", cost)
	}
	g.edges = append(g.edges, inputEdge{from, to, low, cap, cost})
	return len(g.edges) - 1, nil
}

// Result holds a solved circulation: per-edge flows (indexed by the handles
// AddEdge returned) and the total cost sum(flow_e * cost_e).
type Result struct {
	Flow []int
	Cost float64
}

// Circulation computes a feasible min-cost circulation respecting all edge
// bounds, or reports infeasibility.  The graph must not contain a negative
// cost cycle of infinite capacity (impossible here since all capacities are
// finite).
func (g *Graph) Circulation() (*Result, error) {
	// Residual arcs come in pairs: arc 2i is the forward residual of
	// something, arc 2i+1 its reversal.
	type arc struct {
		to   int
		cap  int
		cost float64
	}
	var arcs []arc
	var heads [][]int // adjacency: node -> arc indices
	nodes := g.n + 2
	heads = make([][]int, nodes)
	addArc := func(u, v, cap int, cost float64) int {
		arcs = append(arcs, arc{v, cap, cost}, arc{u, 0, -cost})
		heads[u] = append(heads[u], len(arcs)-2)
		heads[v] = append(heads[v], len(arcs)-1)
		return len(arcs) - 2
	}

	flow := make([]int, len(g.edges))
	balance := make([]int, nodes)
	totalCost := 0.0
	// fwdArc[e] is the residual arc carrying extra flow on edge e;
	// undoArc[e] (if >= 0) carries reductions of pre-saturated flow.
	fwdArc := make([]int, len(g.edges))
	undoArc := make([]int, len(g.edges))
	for e := range undoArc {
		fwdArc[e] = -1
		undoArc[e] = -1
	}

	for e, in := range g.edges {
		// Mandatory flow from the lower bound.
		if in.low > 0 {
			flow[e] = in.low
			balance[in.to] += in.low
			balance[in.from] -= in.low
			totalCost += float64(in.low) * in.cost
		}
		free := in.cap - in.low
		if free == 0 {
			continue
		}
		if in.cost >= 0 {
			fwdArc[e] = addArc(in.from, in.to, free, in.cost)
		} else {
			// Pre-saturate the negative-cost edge and offer its reversal
			// at positive cost.
			flow[e] += free
			balance[in.to] += free
			balance[in.from] -= free
			totalCost += float64(free) * in.cost
			undoArc[e] = addArc(in.to, in.from, free, -in.cost)
		}
	}

	// Route balances from super-source s to super-sink t.
	s, t := g.n, g.n+1
	need := 0
	for v := 0; v < g.n; v++ {
		if balance[v] > 0 {
			addArc(s, v, balance[v], 0)
			need += balance[v]
		} else if balance[v] < 0 {
			addArc(v, t, -balance[v], 0)
		}
	}

	// Successive shortest paths with Dijkstra + potentials.  All arc costs
	// are non-negative by construction, so initial potentials are zero.
	pot := make([]float64, nodes)
	dist := make([]float64, nodes)
	prevArc := make([]int, nodes)
	sent := 0
	for sent < need {
		for i := range dist {
			dist[i] = math.Inf(1)
			prevArc[i] = -1
		}
		dist[s] = 0
		pq := &nodeQueue{}
		heap.Push(pq, nodeDist{s, 0})
		for pq.Len() > 0 {
			nd := heap.Pop(pq).(nodeDist)
			if nd.d > dist[nd.v] {
				continue
			}
			for _, ai := range heads[nd.v] {
				a := arcs[ai]
				if a.cap == 0 {
					continue
				}
				rc := a.cost + pot[nd.v] - pot[a.to]
				if nd.d+rc < dist[a.to]-1e-15 {
					dist[a.to] = nd.d + rc
					prevArc[a.to] = ai
					heap.Push(pq, nodeDist{a.to, dist[a.to]})
				}
			}
		}
		if math.IsInf(dist[t], 1) {
			return nil, fmt.Errorf("flow: infeasible circulation (lower bounds cannot be met)")
		}
		for v := 0; v < nodes; v++ {
			if !math.IsInf(dist[v], 1) {
				pot[v] += dist[v]
			}
		}
		// Bottleneck along the path.
		push := need - sent
		for v := t; v != s; {
			a := arcs[prevArc[v]]
			if a.cap < push {
				push = a.cap
			}
			v = arcs[prevArc[v]^1].to
		}
		for v := t; v != s; {
			ai := prevArc[v]
			arcs[ai].cap -= push
			arcs[ai^1].cap += push
			totalCost += float64(push) * arcs[ai].cost
			v = arcs[ai^1].to
		}
		sent += push
	}

	// Recover per-edge flows from residual capacities.
	for e := range g.edges {
		if ai := fwdArc[e]; ai >= 0 {
			flow[e] += arcs[ai^1].cap // flow pushed = reverse residual
		}
		if ai := undoArc[e]; ai >= 0 {
			flow[e] -= arcs[ai^1].cap // undone pre-saturation
		}
	}
	// totalCost above accumulated path costs in the reduced world, which
	// equals original costs because potentials telescope; recompute
	// exactly from flows for a clean invariant.
	cost := 0.0
	for e, in := range g.edges {
		if flow[e] < in.low || flow[e] > in.cap {
			return nil, fmt.Errorf("flow: internal error: edge %d flow %d outside [%d,%d]", e, flow[e], in.low, in.cap)
		}
		cost += float64(flow[e]) * in.cost
	}
	return &Result{Flow: flow, Cost: cost}, nil
}

type nodeDist struct {
	v int
	d float64
}

type nodeQueue []nodeDist

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].d < q[j].d }
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(nodeDist)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}
