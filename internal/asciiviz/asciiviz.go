// Package asciiviz renders the paper's figures and schedule visualizations
// as plain-text drawings: the Figure 1 line decomposition, the Figure 2
// grid snake order with an object path, the Figure 3 cluster graph, the
// Figure 4 star segments, the Figures 5–6 lower-bound block graphs, and
// Gantt charts of computed schedules.
package asciiviz

import (
	"fmt"
	"sort"
	"strings"

	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
)

// Line renders a line graph of n nodes decomposed into subgraphs of size
// ell, marking the even (phase 1) and odd (phase 2) subgraphs as Figure 1
// does.
func Line(n, ell int) string {
	if ell < 1 {
		ell = 1
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Line graph: n=%d, ℓ=%d (● phase-1 subgraphs, ○ phase-2 subgraphs)\n\n", n, ell)
	var nodes, marks strings.Builder
	for v := 0; v < n; v++ {
		y := v / ell
		if y%2 == 0 {
			nodes.WriteString("●")
		} else {
			nodes.WriteString("○")
		}
		if v+1 < n {
			nodes.WriteString("-")
		}
		if v%ell == 0 {
			marks.WriteString(fmt.Sprintf("|%-*s", 2*ell-1, fmt.Sprintf("S%d", y)))
		}
	}
	sb.WriteString(nodes.String())
	sb.WriteByte('\n')
	sb.WriteString(marks.String())
	sb.WriteByte('\n')
	return sb.String()
}

// GridSnake renders a side×side grid tiled into tile×tile subgrids with
// the Section 5 boustrophedon execution order numbered per tile, echoing
// Figure 2.
func GridSnake(side, tile int) string {
	if tile < 1 {
		tile = 1
	}
	g := topology.NewSquareGrid(side)
	order := topology.SnakeOrder(g.Decompose(tile))
	rank := make(map[[2]int]int, len(order))
	for i, t := range order {
		rank[[2]int{t.Row, t.Col}] = i + 1
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Grid %d×%d, subgrids %d×%d, execution order (column-major snake):\n\n", side, side, tile, tile)
	tiles := (side + tile - 1) / tile
	for r := 0; r < tiles; r++ {
		for c := 0; c < tiles; c++ {
			fmt.Fprintf(&sb, "[%3d]", rank[[2]int{r, c}])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Cluster renders the Figure 3 cluster graph: α cliques of β nodes, bridge
// nodes marked with *, bridge weight γ.
func Cluster(alpha, beta int, gamma int64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Cluster graph: α=%d cliques × β=%d nodes, bridge weight γ=%d\n", alpha, beta, gamma)
	fmt.Fprintf(&sb, "(* = bridge node; bridges form a clique over all * with weight-%d edges)\n\n", gamma)
	for i := 0; i < alpha; i++ {
		fmt.Fprintf(&sb, "C%-2d ", i)
		for j := 0; j < beta; j++ {
			if j == 0 {
				sb.WriteString("(*)")
			} else {
				sb.WriteString("(o)")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Star renders the Figure 4 star graph with its exponentially growing
// segments marked: segment i of a ray covers positions 2^(i−1) … 2^i−1.
func Star(alpha, beta int) string {
	s := topology.NewStar(alpha, beta)
	var sb strings.Builder
	fmt.Fprintf(&sb, "Star graph: α=%d rays × β=%d nodes, η=%d segments per ray\n", alpha, beta, s.NumSegments())
	sb.WriteString("(S = center; digits mark each node's segment index)\n\n")
	segOf := make([]int, beta+1)
	for i := 1; i <= s.NumSegments(); i++ {
		lo := 1 << (i - 1)
		hi := 1<<i - 1
		if hi > beta {
			hi = beta
		}
		for p := lo; p <= hi && p <= beta; p++ {
			segOf[p] = i
		}
	}
	for r := 0; r < alpha; r++ {
		if r == 0 {
			sb.WriteString("S ")
		} else {
			sb.WriteString("  ")
		}
		for p := 1; p <= beta; p++ {
			fmt.Fprintf(&sb, "-%d", segOf[p]%10)
		}
		fmt.Fprintf(&sb, "   (ray %d)\n", r)
	}
	return sb.String()
}

// Blocks renders the Figures 5–6 lower-bound block layout for s blocks of
// s×√s nodes with weight-s inter-block edges.
func Blocks(s int, tree bool) string {
	sq := 0
	for sq*sq < s {
		sq++
	}
	kind := "grid"
	if tree {
		kind = "tree"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Lower-bound %s: s=%d blocks, each %d rows × %d cols; inter-block edge weight s=%d\n\n", kind, s, s, sq, s)
	show := s
	if show > 6 {
		show = 6
	}
	for b := 0; b < show; b++ {
		fmt.Fprintf(&sb, "H%-3d", b+1)
		sb.WriteString(strings.Repeat("▓", sq))
		if b+1 < s {
			fmt.Fprintf(&sb, " =%d= ", s)
		}
	}
	if show < s {
		fmt.Fprintf(&sb, "… (%d more blocks)", s-show)
	}
	sb.WriteByte('\n')
	if tree {
		sb.WriteString("each block: leftmost column is a vertical path; every row hangs off it (a tree)\n")
	} else {
		sb.WriteString("each block: full s×√s mesh of unit edges\n")
	}
	return sb.String()
}

// Gantt renders a schedule as one row per node with execution steps marked,
// for instances small enough to eyeball (≤ maxNodes rows, ≤ maxWidth
// steps; larger schedules are summarized instead).
func Gantt(in *tm.Instance, s *schedule.Schedule, maxNodes int, maxWidth int64) string {
	makespan := s.Makespan()
	if in.NumTxns() > maxNodes || makespan > maxWidth {
		return fmt.Sprintf("schedule too large to draw (%d transactions, makespan %d); summary: makespan=%d\n",
			in.NumTxns(), makespan, makespan)
	}
	type row struct {
		node graph.NodeID
		id   tm.TxnID
	}
	rows := make([]row, 0, in.NumTxns())
	for i := range in.Txns {
		rows = append(rows, row{in.Txns[i].Node, tm.TxnID(i)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].node < rows[j].node })
	var sb strings.Builder
	fmt.Fprintf(&sb, "Gantt (rows = nodes, X = execution step, makespan = %d):\n\n", makespan)
	for _, r := range rows {
		t := s.Times[r.id]
		fmt.Fprintf(&sb, "node %4d |%s X  (t=%d, objs=%v)\n", r.node, strings.Repeat(".", int(t-1)), t, in.Txns[r.id].Objects)
	}
	return sb.String()
}

// Timeline renders a run's per-object timeline over simulated steps: one
// lane per requested object, marking transit hops (>), queue waits at the
// destination node (=), and use steps (X), with a per-step commit-count
// footer. It is the text rendering of the same move/wait spans the obs
// trace recorder exports to Perfetto, so `dtmsched trace` and a Chrome
// trace of the same run show the same shape.
func Timeline(in *tm.Instance, s *schedule.Schedule, maxObjects int, maxWidth int64) string {
	makespan := s.Makespan()
	if makespan > maxWidth {
		return fmt.Sprintf("timeline too wide to draw (makespan %d > %d); use the Chrome trace export instead\n",
			makespan, maxWidth)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Timeline (steps 1…%d; > transit, = queued, X use):\n\n", makespan)
	shown := 0
	h := s.Handoffs(in)
	for o := 0; o < in.NumObjects; o++ {
		oid := tm.ObjectID(o)
		order := h.Of(oid)
		if len(order) == 0 {
			continue
		}
		if shown >= maxObjects {
			fmt.Fprintf(&sb, "… %d more objects\n", in.NumObjects-o)
			break
		}
		shown++
		lane := make([]byte, makespan+1)
		for i := range lane {
			lane[i] = '.'
		}
		prevNode := in.Home[oid]
		prevTime := int64(0)
		for _, id := range order {
			dest := in.Txns[id].Node
			arrive := prevTime + in.Dist(prevNode, dest)
			used := s.Times[id]
			for t := prevTime + 1; t <= arrive; t++ {
				lane[t] = '>'
			}
			for t := arrive; t < used; t++ {
				if t > 0 {
					lane[t] = '='
				}
			}
			lane[used] = 'X'
			prevNode, prevTime = dest, used
		}
		fmt.Fprintf(&sb, "obj %4d |%s| home=%d users=%d\n", o, lane[1:], in.Home[oid], len(order))
	}
	commits := make([]int, makespan+1)
	for _, t := range s.Times {
		commits[t]++
	}
	var foot strings.Builder
	for t := int64(1); t <= makespan; t++ {
		c := commits[t]
		switch {
		case c == 0:
			foot.WriteByte(' ')
		case c < 10:
			foot.WriteByte(byte('0' + c))
		default:
			foot.WriteByte('+')
		}
	}
	fmt.Fprintf(&sb, "commits  |%s| (per step; + means ≥10)\n", foot.String())
	return sb.String()
}

// ObjectJourney renders the route one object takes under a schedule: the
// sequence of (step, node) handoffs.
func ObjectJourney(in *tm.Instance, s *schedule.Schedule, o tm.ObjectID) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "object %d: home=node %d", o, in.Home[o])
	var prev graph.NodeID = in.Home[o]
	for _, id := range s.Handoffs(in).Of(o) {
		v := in.Txns[id].Node
		fmt.Fprintf(&sb, " →[d=%d] t=%d@node %d", in.Dist(prev, v), s.Times[id], v)
		prev = v
	}
	sb.WriteByte('\n')
	return sb.String()
}
