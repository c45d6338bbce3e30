package topology

import (
	"fmt"
	"strings"

	"dtmsched/internal/graph"
)

// FogCloud is the hierarchical edge–fog–cloud tree of "A Poly-Log
// Approximation for Transaction Scheduling in Fog-Cloud Computing and
// Beyond" (Adhikari, Busch, Poudel): tier 0 is the single cloud root,
// tier t+1 holds fanout[t] children per tier-t node, and every link
// between tiers t and t+1 carries the heterogeneous weight linkWeight[t]
// (cloud links are typically the most expensive). Unlike the unweighted
// BTree, the generator exposes the tier decomposition itself — tier
// membership, parents, subtree ancestors, and LCAs — which is what the
// hierarchical scheduler (internal/hier) shards by.
//
// Node layout is breadth-first: tier t occupies the contiguous ID range
// [TierStart(t), TierStart(t+1)), and the children of the i-th tier-t
// node are the tier-(t+1) nodes [i·fanout[t], (i+1)·fanout[t]) within
// their tier. The tree metric is closed form: dist(u, v) =
// wroot(u) + wroot(v) − 2·wroot(lca(u, v)), where wroot is the weighted
// depth, so Dist runs in O(tiers) without graph searches.
type FogCloud struct {
	g      *graph.Graph
	fanout []int

	tierStart []int          // len tiers+1; tier t is [tierStart[t], tierStart[t+1])
	parent    []graph.NodeID // parent[0] = 0 (the root is its own parent)
	tier      []int32        // tier of each node
	wroot     []int64        // weighted distance to the root
	down      []int64        // down[t] = Σ linkWeight[t:], the depth below a tier-t node
}

// NewFogCloud builds the tree with the given per-tier fan-outs and link
// weights: len(fanout) ≥ 1 inter-tier levels, every fanout ≥ 1, and one
// weight ≥ 1 per level. The resulting tree has len(fanout)+1 tiers.
func NewFogCloud(fanout []int, linkWeight []int64) *FogCloud {
	if len(fanout) == 0 {
		panic("topology: fogcloud needs at least one fan-out level")
	}
	if len(linkWeight) != len(fanout) {
		panic(fmt.Sprintf("topology: fogcloud has %d fan-out levels but %d link weights", len(fanout), len(linkWeight)))
	}
	for t, f := range fanout {
		if f < 1 {
			panic(fmt.Sprintf("topology: fogcloud fan-out %d < 1 at level %d", f, t))
		}
		if linkWeight[t] < 1 {
			panic(fmt.Sprintf("topology: fogcloud link weight %d < 1 at level %d", linkWeight[t], t))
		}
	}
	tiers := len(fanout) + 1
	tierStart := make([]int, tiers+1)
	size := 1
	for t := 0; t < tiers; t++ {
		tierStart[t+1] = tierStart[t] + size
		if t < len(fanout) {
			size *= fanout[t]
		}
	}
	n := tierStart[tiers]

	g := graph.NewNamed(fogCloudName(fanout, linkWeight), n)
	fc := &FogCloud{
		g:         g,
		fanout:    append([]int(nil), fanout...),
		tierStart: tierStart,
		parent:    make([]graph.NodeID, n),
		tier:      make([]int32, n),
		wroot:     make([]int64, n),
		down:      make([]int64, tiers),
	}
	// down[t] = Σ_{j ≥ t} linkWeight[j]; down[tiers-1] = 0 (leaves have no
	// subtree below them).
	for t := tiers - 2; t >= 0; t-- {
		fc.down[t] = fc.down[t+1] + linkWeight[t]
	}
	for t := 0; t < tiers-1; t++ {
		w := linkWeight[t]
		width := tierStart[t+1] - tierStart[t]
		for i := 0; i < width; i++ {
			p := graph.NodeID(tierStart[t] + i)
			for c := 0; c < fanout[t]; c++ {
				child := graph.NodeID(tierStart[t+1] + i*fanout[t] + c)
				g.AddEdge(p, child, w)
				fc.parent[child] = p
				fc.tier[child] = int32(t + 1)
				fc.wroot[child] = fc.wroot[p] + w
			}
		}
	}
	return fc
}

// fogCloudName renders "fogcloud-f4x16-w16x2".
func fogCloudName(fanout []int, weight []int64) string {
	var b strings.Builder
	b.WriteString("fogcloud-f")
	for i, f := range fanout {
		if i > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "%d", f)
	}
	b.WriteString("-w")
	for i, w := range weight {
		if i > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "%d", w)
	}
	return b.String()
}

// Graph returns the underlying graph.
func (f *FogCloud) Graph() *graph.Graph { return f.g }

// Kind returns KindFogCloud.
func (f *FogCloud) Kind() Kind { return KindFogCloud }

// Tiers returns the number of tiers (cloud tier 0 through the edge tier).
func (f *FogCloud) Tiers() int { return len(f.fanout) + 1 }

// Fanout returns the per-level fan-outs (tier t has fanout[t] children
// per node).
func (f *FogCloud) Fanout() []int { return append([]int(nil), f.fanout...) }

// TierOf returns the tier of node u (0 = cloud root).
func (f *FogCloud) TierOf(u graph.NodeID) int { return int(f.tier[u]) }

// TierStart returns the first node ID of tier t.
func (f *FogCloud) TierStart(t int) graph.NodeID { return graph.NodeID(f.tierStart[t]) }

// TierSize returns the number of nodes in tier t.
func (f *FogCloud) TierSize(t int) int { return f.tierStart[t+1] - f.tierStart[t] }

// TierNodes returns the node IDs of tier t in increasing order.
func (f *FogCloud) TierNodes(t int) []graph.NodeID {
	out := make([]graph.NodeID, f.TierSize(t))
	for i := range out {
		out[i] = graph.NodeID(f.tierStart[t] + i)
	}
	return out
}

// Parent returns the parent of u; the root is its own parent.
func (f *FogCloud) Parent(u graph.NodeID) graph.NodeID { return f.parent[u] }

// Ancestor returns u's ancestor at tier t (u itself when TierOf(u) == t).
// It panics when u sits above tier t — such a node has no tier-t ancestor.
func (f *FogCloud) Ancestor(u graph.NodeID, t int) graph.NodeID {
	if f.TierOf(u) < t {
		panic(fmt.Sprintf("topology: node %d at tier %d has no ancestor at tier %d", u, f.TierOf(u), t))
	}
	for f.TierOf(u) > t {
		u = f.parent[u]
	}
	return u
}

// LCA returns the lowest common ancestor of u and v.
func (f *FogCloud) LCA(u, v graph.NodeID) graph.NodeID {
	for f.TierOf(u) > f.TierOf(v) {
		u = f.parent[u]
	}
	for f.TierOf(v) > f.TierOf(u) {
		v = f.parent[v]
	}
	for u != v {
		u, v = f.parent[u], f.parent[v]
	}
	return u
}

// Dist is the closed-form tree metric: the weighted path through the LCA.
func (f *FogCloud) Dist(u, v graph.NodeID) int64 {
	if u == v {
		return 0
	}
	return f.wroot[u] + f.wroot[v] - 2*f.wroot[f.LCA(u, v)]
}

// Diameter is realized between two deepest leaves diverging at the
// highest branching tier t* (2·down[t*]), or along a root-to-leaf path
// (down[0]) when the tree is a path above t*, whichever is longer.
func (f *FogCloud) Diameter() int64 {
	branch := -1
	for t, fo := range f.fanout {
		if fo >= 2 {
			branch = t
			break
		}
	}
	if branch < 0 {
		return f.down[0]
	}
	if d := 2 * f.down[branch]; d > f.down[0] {
		return d
	}
	return f.down[0]
}
