package topology

import (
	"fmt"

	"dtmsched/internal/graph"
)

// Butterfly is the dim-dimensional (unwrapped) butterfly network of
// Section 3.1, a standard supercomputer interconnect (Leighton 1992). It
// has (dim+1)·2^dim nodes arranged in dim+1 levels of 2^dim rows. Node
// ⟨level, row⟩ at level i < dim connects to ⟨i+1, row⟩ (straight edge) and
// ⟨i+1, row XOR 2^i⟩ (cross edge). Its diameter is 2·dim = Θ(log n).
type Butterfly struct {
	g   *graph.Graph
	dim int
}

// NewButterfly builds the dim-dimensional butterfly, dim ≥ 1.
func NewButterfly(dim int) *Butterfly {
	if dim < 1 || dim > 20 {
		panic(fmt.Sprintf("topology: butterfly dimension %d out of range [1,20]", dim))
	}
	rows := 1 << dim
	n := (dim + 1) * rows
	g := graph.NewNamed(fmt.Sprintf("butterfly-%d", dim), n)
	id := func(level, row int) graph.NodeID { return graph.NodeID(level*rows + row) }
	for level := 0; level < dim; level++ {
		for row := 0; row < rows; row++ {
			g.AddUnitEdge(id(level, row), id(level+1, row))
			g.AddUnitEdge(id(level, row), id(level+1, row^(1<<level)))
		}
	}
	return &Butterfly{g: g, dim: dim}
}

// Graph returns the underlying graph.
func (b *Butterfly) Graph() *graph.Graph { return b.g }

// Kind returns KindButterfly.
func (b *Butterfly) Kind() Kind { return KindButterfly }

// Dim returns the butterfly dimension.
func (b *Butterfly) Dim() int { return b.dim }

// Rows returns 2^dim, the number of rows.
func (b *Butterfly) Rows() int { return 1 << b.dim }

// ID returns the node at the given level and row.
func (b *Butterfly) ID(level, row int) graph.NodeID {
	rows := b.Rows()
	if level < 0 || level > b.dim || row < 0 || row >= rows {
		panic(fmt.Sprintf("topology: butterfly coordinate (%d,%d) out of range", level, row))
	}
	return graph.NodeID(level*rows + row)
}

// Coord returns the (level, row) of node id.
func (b *Butterfly) Coord(id graph.NodeID) (level, row int) {
	rows := b.Rows()
	return int(id) / rows, int(id) % rows
}

// Dist delegates to BFS on the graph; the butterfly has no simple exact
// closed form for arbitrary pairs, and its node counts stay modest
// ((d+1)·2^d), so memoized BFS is cheap.
func (b *Butterfly) Dist(u, v graph.NodeID) int64 { return b.g.Dist(u, v) }

// graphMetricFallback marks the butterfly metric as graph-backed.
func (b *Butterfly) graphMetricFallback() {}

// Diameter is 2·dim: route up to level dim fixing bits, then back down.
func (b *Butterfly) Diameter() int64 { return int64(2 * b.dim) }
