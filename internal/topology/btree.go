package topology

import (
	"fmt"

	"dtmsched/internal/graph"
)

// BTree is the complete b-ary tree of the given depth — the paper's
// "hierarchical datacenter" shape (Section 1) and the simplest member of
// the tree family its Section 8.2 lower bound lives on. Nodes are numbered
// level-order: the root is 0, and node i's children are b·i+1 … b·i+b.
// All edges have weight 1.
type BTree struct {
	g     *graph.Graph
	b     int
	depth int
	n     int
}

// NewBTree builds the complete b-ary tree with the given branching factor
// b ≥ 2 and depth ≥ 0 (depth 0 is a single root).
func NewBTree(b, depth int) *BTree {
	if b < 2 {
		panic(fmt.Sprintf("topology: btree branching %d < 2", b))
	}
	if depth < 0 || depth > 20 {
		panic(fmt.Sprintf("topology: btree depth %d out of range [0,20]", depth))
	}
	n := 1
	levelSize := 1
	for d := 0; d < depth; d++ {
		levelSize *= b
		n += levelSize
		if n > 1<<26 {
			panic("topology: btree too large")
		}
	}
	g := graph.NewNamed(fmt.Sprintf("btree-%dx%d", b, depth), n)
	for i := 1; i < n; i++ {
		g.AddUnitEdge(graph.NodeID(i), graph.NodeID((i-1)/b))
	}
	return &BTree{g: g, b: b, depth: depth, n: n}
}

// Graph returns the underlying graph.
func (t *BTree) Graph() *graph.Graph { return t.g }

// Kind reports KindLBTree's family (a tree).
func (t *BTree) Kind() Kind { return KindLBTree }

// Parent returns the parent of v (the root's parent is the root itself).
func (t *BTree) Parent(v graph.NodeID) graph.NodeID {
	if v == 0 {
		return 0
	}
	return (v - 1) / graph.NodeID(t.b)
}

// Level returns v's distance from the root.
func (t *BTree) Level(v graph.NodeID) int {
	l := 0
	for v != 0 {
		v = (v - 1) / graph.NodeID(t.b)
		l++
	}
	return l
}

// Dist is the unique tree-path length, computed by walking both nodes up
// to their lowest common ancestor.
func (t *BTree) Dist(u, v graph.NodeID) int64 {
	lu, lv := t.Level(u), t.Level(v)
	var d int64
	for lu > lv {
		u = (u - 1) / graph.NodeID(t.b)
		lu--
		d++
	}
	for lv > lu {
		v = (v - 1) / graph.NodeID(t.b)
		lv--
		d++
	}
	for u != v {
		u = (u - 1) / graph.NodeID(t.b)
		v = (v - 1) / graph.NodeID(t.b)
		d += 2
	}
	return d
}

// Diameter is 2·depth (leaf to leaf through the root).
func (t *BTree) Diameter() int64 {
	if t.depth == 0 {
		return 0
	}
	return int64(2 * t.depth)
}
