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
// Both run on one distance matrix per site set, filled once.
//
// A caller that only needs walks able to exceed a floor (the certified
// bound's value path) takes them in four stages: the bracket above, then
// WalkAbove's certificate (a multi-start 2-opt/Or-opt high end and the
// Held–Karp 1-tree Lagrangian low end, certified in integers), then a
// depth-first branch and bound over walk prefixes under the same integer
// 1-tree bound, and the Held–Karp DP only when the search runs out of its
// 2^(q−2)-node budget.
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

// Solver computes Walk, WalkAbove, WalkLB, Bracket and Tour bounds with
// reusable scratch: the Held–Karp table, the transposed pairwise-distance
// matrix, the bracket and certificate buffers and an epoch-stamped dedupe
// buffer all persist across calls, so solving many site sets (one per
// object of an instance, or many instances through a pool) allocates only
// on high-water-mark growth. Tours above ExactLimit run on the same
// bracket scratch. A Solver is not safe for concurrent use; parallel
// callers keep one per worker. The zero value is ready to use.
type Solver struct {
	dp    []int64        // Held–Karp table, 2^q·q cells
	dt    []int64        // pairwise distances, transposed
	uniq  []graph.NodeID // dedupe output buffer
	stamp []int64        // per-node visit stamps for O(q) dedupe
	epoch int64

	// Bracket scratch: Prim keys and tree membership, the MST node
	// list, and the nearest-neighbour pool and path as matrix indices.
	key  []int64
	done []bool
	all  []graph.NodeID
	pool []int32
	path []int32

	cert certScratch // WalkAbove's certificate and branch and bound
}

// NewSolver returns an empty solver; scratch grows on first use.
func NewSolver() *Solver { return &Solver{} }

// Walk bounds the shortest walk that starts at home and visits every node
// in sites (an open Hamiltonian path on the metric completion, fixed
// start). Duplicate sites and sites equal to home are harmless.
func (s *Solver) Walk(m graph.Metric, home graph.NodeID, sites []graph.NodeID) Bounds {
	return s.walk(m, home, s.Distinct(sites, home))
}

// walk is Walk over distinct sites ≠ home.
func (s *Solver) walk(m graph.Metric, home graph.NodeID, sites []graph.NodeID) Bounds {
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
// Held–Karp, in O(q²) metric queries (one distance matrix) on the
// solver's scratch: LB is the MST weight over home ∪ sites, UB the
// shorter of a nearest-neighbour + 2-opt path and the doubled MST. Exact
// reports LB == UB. It is the same bracket Walk returns for sets above
// ExactLimit.
func (s *Solver) Bracket(m graph.Metric, home graph.NodeID, sites []graph.NodeID) Bounds {
	sites = s.Distinct(sites, home)
	if len(sites) == 0 {
		return Bounds{Exact: true}
	}
	lb, ub := s.bracket(m, home, sites)
	return Bounds{LB: lb, UB: ub, Exact: lb == ub}
}

// bracket computes Bracket's bounds over distinct sites ≠ home, on the
// distance matrix the heuristic path fills.
func (s *Solver) bracket(m graph.Metric, home graph.NodeID, sites []graph.NodeID) (lb, ub int64) {
	ub, _ = s.heuristicPath(m, home, sites)
	lb = s.matrixMST(len(sites) + 1)
	return lb, min(ub, 2*lb)
}

// WalkLB returns the low end of Walk's bracket alone: the MST weight over
// home ∪ sites, in q(q+1)/2 metric queries for q sites. A duplicate site
// or one equal to home joins the tree at distance 0, so it leaves the
// weight unchanged but costs queries; pass distinct sites.
func (s *Solver) WalkLB(m graph.Metric, home graph.NodeID, sites []graph.NodeID) int64 {
	s.all = append(append(s.all[:0], home), sites...)
	nodes := s.all
	return s.prim(len(nodes), func(u, i int) int64 { return m.Dist(nodes[u], nodes[i]) })
}

// matrixMST is the MST weight over the n indices of the filled distance
// matrix: the weight WalkLB computes over the same nodes, from the same
// distances.
func (s *Solver) matrixMST(n int) int64 {
	dt := s.dt
	return s.prim(n, func(u, i int) int64 { return dt[i*n+u] })
}

// prim is primWeight over n nodes on the solver's Prim scratch.
func (s *Solver) prim(n int, w func(u, i int) int64) int64 {
	s.key, s.done = grow(s.key, n), grow(s.done, n)
	return primWeight(n, w, s.key, s.done)
}

// heuristicPath fills the distance matrix over start ∪ sites and runs
// the nearest-neighbour + 2-opt path from start on it, leaving the path's
// matrix indices in the solver's path buffer. It returns the path's
// length and the index of its last site.
func (s *Solver) heuristicPath(m graph.Metric, start graph.NodeID, sites []graph.NodeID) (length int64, last int32) {
	s.fillPairwise(m, start, sites)
	n := len(sites) + 1
	s.pool = s.pool[:0]
	for i := int32(1); i < int32(n); i++ {
		s.pool = append(s.pool, i)
	}
	s.path = twoOptPath(s.dt, n, nearestNeighborPath(s.dt, n, s.pool, s.path[:0]))
	var cur int32
	for _, v := range s.path {
		length += s.dt[int(v)*n+int(cur)]
		cur = v
	}
	return length, cur
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
	ub, last := s.heuristicPath(m, sites[0], sites[1:])
	ub += s.dt[int(last)*q] // d(sites[0], last site)
	mst := s.matrixMST(q)
	return Bounds{LB: mst, UB: min(ub, 2*mst)}
}

// primWeight returns the minimum spanning tree weight over n nodes,
// via Prim's algorithm in O(n²) time: w(u, i) is the weight of the edge
// from the node u just added to the tree to a node i outside it. It runs
// on caller-provided scratch: best and inTree have n cells, overwritten.
func primWeight(n int, w func(u, i int) int64, best []int64, inTree []bool) int64 {
	if n <= 1 {
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
	for iter := 0; iter < n; iter++ {
		u, bu := -1, inf
		for i := 0; i < n; i++ {
			if !inTree[i] && best[i] < bu {
				u, bu = i, best[i]
			}
		}
		inTree[u] = true
		total += bu
		for i := 0; i < n; i++ {
			if !inTree[i] {
				best[i] = min(best[i], w(u, i))
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
			// Doubling keeps a fresh solver's regrowths logarithmic
			// when node IDs arrive in random order.
			grown := make([]int64, max(int(v)+1, 2*len(s.stamp)))
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

// grow returns a length-n buffer, reusing buf's storage when it is large
// enough.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// fillPairwise populates the solver's transposed distance matrix over
// home ∪ sites (index 0 is home, i ≥ 1 is sites[i−1], stride
// len(sites)+1): dt[j·stride+i] = d(i, j), so the distances into j form
// one contiguous column.
func (s *Solver) fillPairwise(m graph.Metric, home graph.NodeID, sites []graph.NodeID) {
	n := len(sites) + 1
	s.dt = grow(s.dt, n*n)
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
	s.dp = grow(s.dp, size*q)
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

// nearestNeighborPath orders matrix indices by repeatedly hopping to the
// closest unvisited one, starting from index 0, and appends the order to
// out. dt is the transposed distance matrix with stride n. It consumes
// rest, a caller-owned index pool, swapping the pool's last entry into
// each pick's place; ties go to the earliest pool entry.
func nearestNeighborPath(dt []int64, n int, rest, out []int32) []int32 {
	var cur int32
	for len(rest) > 0 {
		bi, bd := 0, dt[int(rest[0])*n+int(cur)]
		for i := 1; i < len(rest); i++ {
			if d := dt[int(rest[i])*n+int(cur)]; d < bd {
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

// twoOptPath improves an open path of matrix indices (fixed start at
// index 0) by reversing segments while any reversal shortens it, for at
// most 32 rounds. dt is the transposed distance matrix with stride n.
func twoOptPath(dt []int64, n int, path []int32) []int32 {
	k := len(path)
	if k < 3 {
		return path
	}
	d := func(u, v int32) int64 { return dt[int(v)*n+int(u)] }
	prev := func(i int) int32 {
		if i == 0 {
			return 0
		}
		return path[i-1]
	}
	improved := true
	for rounds := 0; improved && rounds < 32; rounds++ {
		improved = false
		for i := 0; i < k-1; i++ {
			for j := i + 1; j < k; j++ {
				// Reverse path[i..j]: edges (prev(i), path[i]) and
				// (path[j], path[j+1]) become (prev(i), path[j]) and
				// (path[i], path[j+1]).
				oldCost := d(prev(i), path[i])
				newCost := d(prev(i), path[j])
				if j+1 < k {
					oldCost += d(path[j], path[j+1])
					newCost += d(path[i], path[j+1])
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
