package topology

import (
	"fmt"

	"dtmsched/internal/graph"
)

// Grid is the rows×cols mesh of Section 5. Nodes are laid out row-major:
// node (r, c) has ID r*cols + c, with (0, 0) at the top left matching the
// paper's orientation. All edges have weight 1 and connect 4-neighbors.
type Grid struct {
	g          *graph.Graph
	rows, cols int
	// at holds every node's (row, column), so Dist reads two entries
	// instead of dividing twice per node.
	at []gridCoord
}

// gridCoord is a node's (row, column).
type gridCoord struct{ r, c int32 }

// NewGrid builds a rows×cols mesh; both dimensions must be ≥ 1.
func NewGrid(rows, cols int) *Grid {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("topology: grid %dx%d has empty dimension", rows, cols))
	}
	g := graph.NewNamed(fmt.Sprintf("grid-%dx%d", rows, cols), rows*cols)
	at := make([]gridCoord, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := graph.NodeID(r*cols + c)
			at = append(at, gridCoord{int32(r), int32(c)})
			if c+1 < cols {
				g.AddUnitEdge(id, id+1)
			}
			if r+1 < rows {
				g.AddUnitEdge(id, graph.NodeID((r+1)*cols+c))
			}
		}
	}
	return &Grid{g: g, rows: rows, cols: cols, at: at}
}

// NewSquareGrid builds the paper's n×n grid.
func NewSquareGrid(n int) *Grid { return NewGrid(n, n) }

// Graph returns the underlying graph.
func (gr *Grid) Graph() *graph.Graph { return gr.g }

// Kind returns KindGrid.
func (gr *Grid) Kind() Kind { return KindGrid }

// Rows returns the number of rows.
func (gr *Grid) Rows() int { return gr.rows }

// Cols returns the number of columns.
func (gr *Grid) Cols() int { return gr.cols }

// ID returns the node at row r, column c.
func (gr *Grid) ID(r, c int) graph.NodeID {
	if r < 0 || r >= gr.rows || c < 0 || c >= gr.cols {
		panic(fmt.Sprintf("topology: grid coordinate (%d,%d) outside %dx%d", r, c, gr.rows, gr.cols))
	}
	return graph.NodeID(r*gr.cols + c)
}

// Coord returns the (row, column) of node id.
func (gr *Grid) Coord(id graph.NodeID) (r, c int) {
	return int(id) / gr.cols, int(id) % gr.cols
}

// Dist is the Manhattan distance between two of the grid's nodes.
func (gr *Grid) Dist(u, v graph.NodeID) int64 {
	a, b := gr.at[u], gr.at[v]
	return abs64(int64(a.r)-int64(b.r)) + abs64(int64(a.c)-int64(b.c))
}

// Diameter is (rows−1) + (cols−1).
func (gr *Grid) Diameter() int64 { return int64(gr.rows-1) + int64(gr.cols-1) }

// Subgrid identifies one √ξ×√ξ tile in the Section 5 decomposition.
type Subgrid struct {
	// Row and Col index the tile within the tile grid (0-based).
	Row, Col int
	// R0, C0 are the node coordinates of the tile's top-left corner;
	// R1, C1 are one past its bottom-right corner (half-open ranges).
	R0, C0, R1, C1 int
}

// Nodes returns the node IDs inside the subgrid in row-major order.
func (s Subgrid) Nodes(gr *Grid) []graph.NodeID {
	out := make([]graph.NodeID, 0, (s.R1-s.R0)*(s.C1-s.C0))
	for r := s.R0; r < s.R1; r++ {
		for c := s.C0; c < s.C1; c++ {
			out = append(out, gr.ID(r, c))
		}
	}
	return out
}

// Decompose tiles the grid into side×side subgrids; border tiles may be
// smaller when side does not divide the dimensions (the paper treats those
// "partial subgrids" identically). Tiles are indexed (Row, Col) and returned
// row-major over the tile grid.
func (gr *Grid) Decompose(side int) [][]Subgrid {
	if side < 1 {
		panic(fmt.Sprintf("topology: subgrid side %d < 1", side))
	}
	tileRows := (gr.rows + side - 1) / side
	tileCols := (gr.cols + side - 1) / side
	tiles := make([][]Subgrid, tileRows)
	for i := 0; i < tileRows; i++ {
		tiles[i] = make([]Subgrid, tileCols)
		for j := 0; j < tileCols; j++ {
			t := Subgrid{
				Row: i, Col: j,
				R0: i * side, C0: j * side,
				R1: (i + 1) * side, C1: (j + 1) * side,
			}
			if t.R1 > gr.rows {
				t.R1 = gr.rows
			}
			if t.C1 > gr.cols {
				t.C1 = gr.cols
			}
			tiles[i][j] = t
		}
	}
	return tiles
}

// SnakeOrder flattens a tile matrix into the Section 5 execution order:
// column-major over tiles, with even tile columns traversed top to bottom
// and odd tile columns bottom to top, alternating (boustrophedon).
func SnakeOrder(tiles [][]Subgrid) []Subgrid {
	if len(tiles) == 0 {
		return nil
	}
	tileRows, tileCols := len(tiles), len(tiles[0])
	out := make([]Subgrid, 0, tileRows*tileCols)
	for j := 0; j < tileCols; j++ {
		if j%2 == 0 {
			for i := 0; i < tileRows; i++ {
				out = append(out, tiles[i][j])
			}
		} else {
			for i := tileRows - 1; i >= 0; i-- {
				out = append(out, tiles[i][j])
			}
		}
	}
	return out
}
