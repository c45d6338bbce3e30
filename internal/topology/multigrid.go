package topology

import (
	"fmt"

	"dtmsched/internal/graph"
)

// MultiGrid is the d-dimensional mesh mentioned in Section 3.1 (log n-
// dimensional grids have diameter O(log n), so the greedy schedule gives
// the same O(k·log n) bound as the hypercube — of which the 2×2×…×2
// multigrid is exactly the special case).
//
// Node IDs are mixed-radix over dims: the last dimension varies fastest.
type MultiGrid struct {
	g    *graph.Graph
	dims []int
	strd []int // strides per dimension
}

// NewMultiGrid builds the mesh with the given per-dimension sizes (each
// ≥ 1, at least one dimension).
func NewMultiGrid(dims ...int) *MultiGrid {
	if len(dims) == 0 {
		panic("topology: multigrid needs at least one dimension")
	}
	n := 1
	for _, d := range dims {
		if d < 1 {
			panic(fmt.Sprintf("topology: multigrid dimension %d < 1", d))
		}
		if n > 1<<26/d {
			panic("topology: multigrid too large")
		}
		n *= d
	}
	strd := make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strd[i] = s
		s *= dims[i]
	}
	g := graph.NewNamed(fmt.Sprintf("multigrid-%v", dims), n)
	coord := make([]int, len(dims))
	for id := 0; id < n; id++ {
		for axis := range dims {
			if coord[axis]+1 < dims[axis] {
				g.AddUnitEdge(graph.NodeID(id), graph.NodeID(id+strd[axis]))
			}
		}
		// Increment mixed-radix coordinate.
		for axis := len(dims) - 1; axis >= 0; axis-- {
			coord[axis]++
			if coord[axis] < dims[axis] {
				break
			}
			coord[axis] = 0
		}
	}
	dcopy := make([]int, len(dims))
	copy(dcopy, dims)
	return &MultiGrid{g: g, dims: dcopy, strd: strd}
}

// Graph returns the underlying graph.
func (m *MultiGrid) Graph() *graph.Graph { return m.g }

// Kind reports KindGrid: the multigrid generalizes the planar mesh.
func (m *MultiGrid) Kind() Kind { return KindGrid }

// Coord returns the mixed-radix coordinate of id.
func (m *MultiGrid) Coord(id graph.NodeID) []int {
	out := make([]int, len(m.dims))
	rem := int(id)
	for axis := range m.dims {
		out[axis] = rem / m.strd[axis]
		rem %= m.strd[axis]
	}
	return out
}

// ID returns the node at the given coordinate.
func (m *MultiGrid) ID(coord ...int) graph.NodeID {
	if len(coord) != len(m.dims) {
		panic(fmt.Sprintf("topology: multigrid coordinate has %d axes, want %d", len(coord), len(m.dims)))
	}
	id := 0
	for axis, c := range coord {
		if c < 0 || c >= m.dims[axis] {
			panic(fmt.Sprintf("topology: multigrid coordinate %d out of range on axis %d", c, axis))
		}
		id += c * m.strd[axis]
	}
	return graph.NodeID(id)
}

// Dist is the L1 (Manhattan) distance over all dimensions.
func (m *MultiGrid) Dist(u, v graph.NodeID) int64 {
	var d int64
	ru, rv := int(u), int(v)
	for axis := range m.dims {
		cu := ru / m.strd[axis]
		cv := rv / m.strd[axis]
		ru %= m.strd[axis]
		rv %= m.strd[axis]
		d += abs64(int64(cu) - int64(cv))
	}
	return d
}

// Diameter is Σ (dims[i] − 1).
func (m *MultiGrid) Diameter() int64 {
	var d int64
	for _, x := range m.dims {
		d += int64(x - 1)
	}
	return d
}
