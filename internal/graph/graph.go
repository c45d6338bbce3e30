// Package graph provides the weighted undirected communication graphs on
// which the distributed transactional memory model of Busch et al. operates.
//
// Nodes are dense integer identifiers in [0, N). Edges carry positive
// integer weights representing communication delay in synchronous time
// steps. The package offers single-source shortest paths (BFS for unit
// weights, Dijkstra otherwise), lock-free lazily cached per-source
// distances, an opt-in precomputed all-pairs matrix (Precompute) for
// densely queried instances, exact path reconstruction, and parallel
// all-pairs computation for large instances.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// NodeID identifies a node of a Graph. IDs are dense: a graph with N nodes
// uses IDs 0..N-1.
type NodeID int

// Edge is an outgoing half-edge in an adjacency list.
type Edge struct {
	To     NodeID
	Weight int64
}

// Graph is a weighted undirected multigraph with dense node IDs.
// The zero value is an empty graph with no nodes; use New to size it.
//
// Graph is safe for concurrent reads after construction, including first
// queries against the lazily created shortest-path cache (trees are
// published lock-free per source) and against a precomputed distance
// matrix (Precompute). Mutation (AddEdge) must not race with queries.
type Graph struct {
	name       string
	adj        [][]Edge
	edges      int
	unitWeight bool // true while every inserted edge has weight 1

	sp   atomic.Pointer[spCache]    // lazy per-source tree cache, created on first query
	apsp atomic.Pointer[distMatrix] // optional precomputed all-pairs matrix (Precompute)
}

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{adj: make([][]Edge, n), unitWeight: true}
}

// NewNamed is New with a human-readable name used in error and report text.
func NewNamed(name string, n int) *Graph {
	g := New(n)
	g.name = name
	return g
}

// Name returns the graph's descriptive name (may be empty).
func (g *Graph) Name() string { return g.name }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected edges inserted so far.
func (g *Graph) NumEdges() int { return g.edges }

// AddEdge inserts an undirected edge {u, v} of weight w ≥ 1.
// Self-loops are rejected: they are meaningless as communication links.
func (g *Graph) AddEdge(u, v NodeID, w int64) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	g.checkNode(u)
	g.checkNode(v)
	if w < 1 {
		panic(fmt.Sprintf("graph: edge weight %d < 1", w))
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], Edge{To: u, Weight: w})
	g.edges++
	if w != 1 {
		g.unitWeight = false
	}
	g.sp.Store(nil) // invalidate tree cache
	g.apsp.Store(nil)
}

// AddUnitEdge inserts an undirected edge of weight 1.
func (g *Graph) AddUnitEdge(u, v NodeID) { g.AddEdge(u, v, 1) }

// Neighbors returns the adjacency list of u. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(u NodeID) []Edge {
	g.checkNode(u)
	return g.adj[u]
}

// Degree returns the number of incident edges of u.
func (g *Graph) Degree(u NodeID) int {
	g.checkNode(u)
	return len(g.adj[u])
}

// HasEdge reports whether an edge {u, v} exists, and returns the minimum
// weight among parallel edges if so.
func (g *Graph) HasEdge(u, v NodeID) (int64, bool) {
	g.checkNode(u)
	g.checkNode(v)
	best := int64(-1)
	for _, e := range g.adj[u] {
		if e.To == v && (best < 0 || e.Weight < best) {
			best = e.Weight
		}
	}
	return best, best >= 0
}

// MaxEdgeWeight returns the largest edge weight, or 0 for an edgeless graph.
func (g *Graph) MaxEdgeWeight() int64 {
	var mw int64
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if e.Weight > mw {
				mw = e.Weight
			}
		}
	}
	return mw
}

// UnitWeight reports whether every edge has weight exactly 1.
func (g *Graph) UnitWeight() bool { return g.unitWeight }

// Connected reports whether the graph is connected (an empty graph and a
// single-node graph are connected).
func (g *Graph) Connected() bool {
	n := len(g.adj)
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == n
}

// Nodes returns all node IDs in increasing order.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, len(g.adj))
	for i := range ids {
		ids[i] = NodeID(i)
	}
	return ids
}

// SortedNeighbors returns a copy of u's adjacency list sorted by target ID
// then weight; useful for deterministic iteration in tests and renderers.
func (g *Graph) SortedNeighbors(u NodeID) []Edge {
	src := g.Neighbors(u)
	out := make([]Edge, len(src))
	copy(out, src)
	sort.Slice(out, func(i, j int) bool {
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Weight < out[j].Weight
	})
	return out
}

func (g *Graph) checkNode(u NodeID) {
	if u < 0 || int(u) >= len(g.adj) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, len(g.adj)))
	}
}

// String summarizes the graph.
func (g *Graph) String() string {
	name := g.name
	if name == "" {
		name = "graph"
	}
	return fmt.Sprintf("%s(n=%d, m=%d)", name, len(g.adj), g.edges)
}

// DOT renders the graph in Graphviz DOT format (undirected; weight-1
// edges unlabeled, heavier edges labeled), for visual inspection of
// generated topologies.
func (g *Graph) DOT() string {
	var sb strings.Builder
	name := g.name
	if name == "" {
		name = "G"
	}
	fmt.Fprintf(&sb, "graph %q {\n", name)
	for u := range g.adj {
		for _, e := range g.SortedNeighbors(NodeID(u)) {
			if int(e.To) < u {
				continue
			}
			if e.Weight == 1 {
				fmt.Fprintf(&sb, "  %d -- %d;\n", u, e.To)
			} else {
				fmt.Fprintf(&sb, "  %d -- %d [label=%d];\n", u, e.To, e.Weight)
			}
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
