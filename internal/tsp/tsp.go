// Package tsp bounds the shortest walks and TSP tours that objects follow
// through the communication graph. The paper's execution-time lower bounds
// rest on the longest shortest walk of any object (the walk starts at the
// object's home and visits every requesting transaction); optimal TSP tour
// lengths are within a factor two of shortest walks.
//
// All routines work over an abstract graph.Metric, which satisfies the
// triangle inequality because it is a shortest-path metric. Small site
// sets are solved exactly with Held–Karp dynamic programming; larger sets
// get certified bounds: MST weight ≤ optimal walk ≤ optimal tour ≤ 2·MST,
// with a nearest-neighbor + 2-opt heuristic tightening the upper side.
//
// Held–Karp pulls each state from its predecessors, dp[S][j] = min over
// i ∈ S∖{j} of dp[S∖{j}][i] + d(i, j): one table row read against one
// column of a transposed distance matrix, every state written once, so
// the table (2^q·q int64 cells, 8 MiB at q = 16) needs no initialisation.
// It lives on a reusable Solver; callers that compute many bounds recycle
// solvers through a sync.Pool, and a pooled solver keeps its tables until
// the GC empties the pool. Every bound is a Solver method; a one-off
// caller uses a zero Solver.
package tsp

import (
	"math"
	"math/bits"
	"slices"

	"dtmsched/internal/graph"
)

// ExactLimit is the largest number of sites solved exactly by Held–Karp;
// beyond it, Walk and Tour return certified bounds instead.
const ExactLimit = 16

// Bounds brackets an optimal length: LB ≤ OPT ≤ UB. Exact results have
// LB == UB.
type Bounds struct {
	LB, UB int64
	// Exact is true when the bounds come from exhaustive dynamic
	// programming rather than MST/heuristic estimates.
	Exact bool
}

// Solver computes Walk, WalkLB, Bracket and Tour bounds with reusable
// scratch: the Held–Karp table, the transposed pairwise-distance matrix,
// the bracket buffers and an epoch-stamped dedupe buffer all persist
// across calls, so solving many site sets (one per object of an
// instance, or many instances through a pool) allocates only on
// high-water-mark growth. Tours above ExactLimit run on the same
// bracket scratch. A Solver is not safe for concurrent use; parallel
// callers keep one per worker. The zero value is ready to use.
type Solver struct {
	dp    []int64        // Held–Karp table, 2^q·q cells
	dt    []int64        // pairwise distances, transposed
	uniq  []graph.NodeID // dedupe output buffer
	stamp []int64        // per-node visit stamps for O(q) dedupe
	epoch int64

	// Bracket scratch: Prim keys and tree membership, the MST node
	// list, and the nearest-neighbour pool and path.
	key  []int64
	done []bool
	all  []graph.NodeID
	pool []graph.NodeID
	path []graph.NodeID
}

// NewSolver returns an empty solver; scratch grows on first use.
func NewSolver() *Solver { return &Solver{} }

// Walk bounds the shortest walk that starts at home and visits every node
// in sites (an open Hamiltonian path on the metric completion, fixed
// start). Duplicate sites and sites equal to home are harmless.
func (s *Solver) Walk(m graph.Metric, home graph.NodeID, sites []graph.NodeID) Bounds {
	sites = s.Distinct(sites, home)
	q := len(sites)
	switch {
	case q == 0:
		return Bounds{Exact: true}
	case q == 1:
		d := m.Dist(home, sites[0])
		return Bounds{LB: d, UB: d, Exact: true}
	case q <= ExactLimit:
		opt := s.heldKarpPath(m, home, sites)
		return Bounds{LB: opt, UB: opt, Exact: true}
	}
	lb, ub := s.bracket(m, home, sites)
	return Bounds{LB: lb, UB: ub}
}

// Bracket bounds the shortest walk from home through sites without
// Held–Karp, in O(q²) metric queries on the solver's scratch: LB is the
// MST weight over home ∪ sites, UB the shorter of a nearest-neighbour +
// 2-opt path and the doubled MST. Exact reports LB == UB. It is the same
// bracket Walk returns for sets above ExactLimit.
func (s *Solver) Bracket(m graph.Metric, home graph.NodeID, sites []graph.NodeID) Bounds {
	sites = s.Distinct(sites, home)
	if len(sites) == 0 {
		return Bounds{Exact: true}
	}
	lb, ub := s.bracket(m, home, sites)
	return Bounds{LB: lb, UB: ub, Exact: lb == ub}
}

// bracket computes Bracket's bounds over distinct sites ≠ home.
func (s *Solver) bracket(m graph.Metric, home graph.NodeID, sites []graph.NodeID) (lb, ub int64) {
	lb = s.WalkLB(m, home, sites)
	ub = pathLen(m, home, s.heuristicPath(m, home, sites))
	return lb, min(ub, 2*lb)
}

// WalkLB returns the low end of Walk's bracket alone: the MST weight over
// home ∪ sites, in q(q+1)/2 metric queries for q sites. A duplicate site
// or one equal to home joins the tree at distance 0, so it leaves the
// weight unchanged but costs queries; pass distinct sites.
func (s *Solver) WalkLB(m graph.Metric, home graph.NodeID, sites []graph.NodeID) int64 {
	s.all = append(append(s.all[:0], home), sites...)
	return s.mstWeight(m, s.all)
}

// mstWeight is the MST weight over nodes on the solver's Prim scratch.
func (s *Solver) mstWeight(m graph.Metric, nodes []graph.NodeID) int64 {
	s.key = growI64(s.key, len(nodes))
	if cap(s.done) < len(nodes) {
		s.done = make([]bool, len(nodes))
	}
	return primWeight(m, nodes, s.key, s.done[:len(nodes)])
}

// heuristicPath returns the nearest-neighbour + 2-opt path from start
// through sites, in the solver's path buffer.
func (s *Solver) heuristicPath(m graph.Metric, start graph.NodeID, sites []graph.NodeID) []graph.NodeID {
	s.pool = append(s.pool[:0], sites...)
	s.path = twoOptPath(m, start, nearestNeighborPath(m, start, s.pool, s.path[:0]))
	return s.path
}

// Tour bounds the optimal closed TSP tour through all sites (no fixed
// start). The paper's Theorem 6 measures objects' TSP tour lengths.
func (s *Solver) Tour(m graph.Metric, sites []graph.NodeID) Bounds {
	sites = s.Distinct(sites, -1)
	q := len(sites)
	switch {
	case q <= 1:
		return Bounds{Exact: true}
	case q == 2:
		d := 2 * m.Dist(sites[0], sites[1])
		return Bounds{LB: d, UB: d, Exact: true}
	case q <= ExactLimit:
		opt := s.heldKarpTour(m, sites)
		return Bounds{LB: opt, UB: opt, Exact: true}
	}
	mst := s.mstWeight(m, sites)
	path := s.heuristicPath(m, sites[0], sites[1:])
	ub := m.Dist(sites[0], path[len(path)-1]) + pathLen(m, sites[0], path)
	return Bounds{LB: mst, UB: min(ub, 2*mst)}
}

// primWeight returns the minimum spanning tree weight over sites under
// metric m, via Prim's algorithm in O(q²) time, on caller-provided
// scratch: best and inTree have len(sites) cells, overwritten.
func primWeight(m graph.Metric, sites []graph.NodeID, best []int64, inTree []bool) int64 {
	q := len(sites)
	if q <= 1 {
		return 0
	}
	const inf = int64(math.MaxInt64)
	for i := range inTree {
		inTree[i] = false
	}
	for i := range best {
		best[i] = inf
	}
	best[0] = 0
	var total int64
	for iter := 0; iter < q; iter++ {
		u, bu := -1, inf
		for i := 0; i < q; i++ {
			if !inTree[i] && best[i] < bu {
				u, bu = i, best[i]
			}
		}
		inTree[u] = true
		total += bu
		for i := 0; i < q; i++ {
			if !inTree[i] {
				if d := m.Dist(sites[u], sites[i]); d < best[i] {
					best[i] = d
				}
			}
		}
	}
	return total
}

// Distinct removes duplicates (and, when skip ≥ 0, sites equal to skip)
// preserving first-occurrence order, via per-node epoch stamps: O(q) with
// no per-call map. This is the set Walk solves. The returned slice is the
// solver's buffer, valid until the next call.
func (s *Solver) Distinct(sites []graph.NodeID, skip graph.NodeID) []graph.NodeID {
	s.epoch++
	out := s.uniq[:0]
	for _, v := range sites {
		if v == skip {
			continue
		}
		if int(v) >= len(s.stamp) {
			grown := make([]int64, int(v)+1)
			copy(grown, s.stamp)
			s.stamp = grown
		}
		if s.stamp[v] == s.epoch {
			continue
		}
		s.stamp[v] = s.epoch
		out = append(out, v)
	}
	s.uniq = out
	return out
}

// growI64 returns a length-n int64 buffer, reusing buf's storage when it
// is large enough.
func growI64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

// fillPairwise populates the solver's transposed distance matrix over
// home ∪ sites (index 0 is home, i ≥ 1 is sites[i−1], stride
// len(sites)+1): dt[j·stride+i] = d(i, j), so the distances into j form
// one contiguous column.
func (s *Solver) fillPairwise(m graph.Metric, home graph.NodeID, sites []graph.NodeID) {
	n := len(sites) + 1
	s.dt = growI64(s.dt, n*n)
	at := func(i int) graph.NodeID {
		if i == 0 {
			return home
		}
		return sites[i-1]
	}
	for j := 0; j < n; j++ {
		col := s.dt[j*n : (j+1)*n]
		nj := at(j)
		for i := range col {
			if i == j {
				col[i] = 0
				continue
			}
			col[i] = m.Dist(at(i), nj)
		}
	}
}

// heldKarp runs the Held–Karp DP over the q sites of the filled distance
// matrix and returns the full set's row: entry j is the cheapest walk from
// index 0 through every site, ending at site j. It pulls each state from
// its predecessors,
//
//	dp[S][j] = min over i ∈ S∖{j} of dp[S∖{j}][i] + d(i, j),
//
// so a state reads one row of the table against one distance column, and
// every state with j ∈ S is written exactly once before any read (S∖{j}
// < S). States with j ∉ S are never read, so the table is not
// initialised: it may hold rows of an earlier, larger solve.
func (s *Solver) heldKarp(q int) []int64 {
	stride := q + 1
	size := 1 << q
	s.dp = growI64(s.dp, size*q)
	dp := s.dp
	for set := 1; set < size; set++ {
		row := dp[set*q : (set+1)*q]
		if set&(set-1) == 0 {
			j := bits.TrailingZeros32(uint32(set))
			row[j] = s.dt[(j+1)*stride] // d(home, j)
			continue
		}
		for ends := uint32(set); ends != 0; ends &= ends - 1 {
			j := int(bits.TrailingZeros32(ends))
			from := uint32(set) &^ (1 << j)
			prev := dp[int(from)*q : int(from+1)*q]
			col := s.dt[(j+1)*stride+1 : (j+2)*stride]
			i := int(bits.TrailingZeros32(from))
			best := prev[i] + col[i]
			for from &= from - 1; from != 0; from &= from - 1 {
				i = int(bits.TrailingZeros32(from))
				best = min(best, prev[i]+col[i])
			}
			row[j] = best
		}
	}
	return dp[(size-1)*q : size*q]
}

// heldKarpPath solves the fixed-start open walk from home through sites
// exactly.
func (s *Solver) heldKarpPath(m graph.Metric, home graph.NodeID, sites []graph.NodeID) int64 {
	s.fillPairwise(m, home, sites)
	return slices.Min(s.heldKarp(len(sites)))
}

// heldKarpTour solves the closed tour exactly by fixing sites[0] as the
// start and end: the walk from sites[0] through the rest, closed by the
// edge back from its last site.
func (s *Solver) heldKarpTour(m graph.Metric, sites []graph.NodeID) int64 {
	s.fillPairwise(m, sites[0], sites[1:])
	row := s.heldKarp(len(sites) - 1)
	for j := range row {
		row[j] += s.dt[j+1] // d(site j, start)
	}
	return slices.Min(row)
}

// nearestNeighborPath orders sites by repeatedly hopping to the closest
// unvisited site, starting from home, and appends the order to out. It
// consumes rest, a caller-owned copy of the sites.
func nearestNeighborPath(m graph.Metric, home graph.NodeID, rest, out []graph.NodeID) []graph.NodeID {
	cur := home
	for len(rest) > 0 {
		bi, bd := 0, m.Dist(cur, rest[0])
		for i := 1; i < len(rest); i++ {
			if d := m.Dist(cur, rest[i]); d < bd {
				bi, bd = i, d
			}
		}
		cur = rest[bi]
		out = append(out, cur)
		rest[bi] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
	}
	return out
}

// twoOptPath improves an open path (fixed start at home) by reversing
// segments while any reversal shortens it.
func twoOptPath(m graph.Metric, home graph.NodeID, path []graph.NodeID) []graph.NodeID {
	n := len(path)
	if n < 3 {
		return path
	}
	prev := func(i int) graph.NodeID {
		if i == 0 {
			return home
		}
		return path[i-1]
	}
	improved := true
	for rounds := 0; improved && rounds < 32; rounds++ {
		improved = false
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				// Reverse path[i..j]: edges (prev(i), path[i]) and
				// (path[j], path[j+1]) become (prev(i), path[j]) and
				// (path[i], path[j+1]).
				oldCost := m.Dist(prev(i), path[i])
				newCost := m.Dist(prev(i), path[j])
				if j+1 < n {
					oldCost += m.Dist(path[j], path[j+1])
					newCost += m.Dist(path[i], path[j+1])
				}
				if newCost < oldCost {
					for a, b := i, j; a < b; a, b = a+1, b-1 {
						path[a], path[b] = path[b], path[a]
					}
					improved = true
				}
			}
		}
	}
	return path
}

func pathLen(m graph.Metric, home graph.NodeID, path []graph.NodeID) int64 {
	var total int64
	cur := home
	for _, v := range path {
		total += m.Dist(cur, v)
		cur = v
	}
	return total
}
