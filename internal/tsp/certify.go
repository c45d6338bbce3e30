package tsp

import (
	"math"
	"math/bits"
	"slices"

	"dtmsched/internal/graph"
)

// Outcome says how WalkAbove settled a walk.
type Outcome uint8

const (
	// Solved walks went through Held–Karp.
	Solved Outcome = iota
	// Certified walks are exact without Held–Karp: the certificate's
	// integer low end met its local-search high end.
	Certified
	// Pruned walks are at most the floor, shown by a walk no longer than
	// it (the certificate's high end, or one the branch and bound found),
	// so they were never solved.
	Pruned
	// Branched walks are exact without Held–Karp: the branch and bound
	// closed the gap the certificate left, within its node budget.
	Branched
)

const (
	// lagrangeIters caps the subgradient iterations of the low end.
	lagrangeIters = 100
	// lagrangeStall is how many iterations without a better bound halve
	// the step scale, which starts at 2.
	lagrangeStall = 8
	// lagrangeScale is K: the integer recompute works in distances times
	// K, so rounded penalties keep 1/K precision.
	lagrangeScale = 1 << 20
	// certMaxDist and certMaxPen keep the integer recompute inside int64:
	// a scaled edge is at most 2^50 + 2·2^51, and a 1-tree over
	// ExactLimit+2 nodes sums 18 of them. Larger matrices, or
	// penalties that drifted further, skip the certificate.
	certMaxDist = 1 << 30
	certMaxPen  = 1 << 31
)

// certScratch holds the certificate's and the branch and bound's
// buffers, sized for ExactLimit sites. It lives on the Solver, so a warm
// certificate allocates nothing, and a fresh Solver allocates it in one
// piece.
type certScratch struct {
	// c is the symmetric distance matrix over home (index 0), the q
	// sites (1..q) and a dummy node (q+1) at distance 0 from all of
	// them, stride q+2. An open walk from home is then a closed tour
	// that returns through the dummy.
	c [(ExactLimit + 2) * (ExactLimit + 2)]int64
	// cur and best are local-search paths over positions 0..q+1: home
	// first, the dummy last.
	cur, best [ExactLimit + 2]int32
	// Subgradient state: float penalties, the best penalties seen, the
	// 1-tree's degrees, Prim keys and parents.
	pen, bestPen, fkey [ExactLimit + 1]float64
	deg, parent        [ExactLimit + 1]int32
	// Integer recompute: rounded penalties, Prim keys and membership.
	ipen, ikey [ExactLimit + 1]int64
	done       [ExactLimit + 1]bool
	// Branch and bound: the incumbent walk's length, the floor that
	// stops the search, the nodes left in the budget, and each depth's
	// children, nearest first.
	inc, floor int64
	left       int
	kids       [ExactLimit][ExactLimit]int8
}

// WalkAbove returns the shortest walk from home through sites, for a
// caller that only needs it when it exceeds floor. Exact stages decide
// the walk before Held–Karp whenever they can, on the (q+1)² distance
// matrix Held–Karp reads:
//
//   - the certificate's high end: nearest-neighbour from every first
//     site, each improved by 2-opt and Or-opt to a local optimum. When
//     it is ≤ floor the walk cannot exceed floor, and WalkAbove returns
//     it as Pruned;
//   - the certificate's low end: the Held–Karp 1-tree Lagrangian bound,
//     certified in integers. When it meets the high end the walk is
//     exact, and WalkAbove returns it as Certified;
//   - a depth-first branch and bound over walk prefixes from home,
//     bounded by the same integer 1-tree over each prefix's remaining
//     sites and started from the high end. It returns the optimum as
//     Branched, or the first walk it finds that is ≤ floor as Pruned,
//     unless it runs out of its 2^(q−2) node budget.
//
// Otherwise Held–Karp solves the walk on the same matrix (Solved). The
// certificate and the search need a symmetric matrix with distances ≤
// 2^30; other matrices go straight to Held–Karp. Sites are as for Walk. A
// set outside Held–Karp's range (fewer than two or more than ExactLimit
// distinct sites) returns Walk's low end, as Solved.
func (s *Solver) WalkAbove(m graph.Metric, home graph.NodeID, sites []graph.NodeID, floor int64) (int64, Outcome) {
	sites = s.Distinct(sites, home)
	return s.walkAbove(m, home, sites, floor, 1<<max(len(sites)-2, 0))
}

// walkAbove is WalkAbove over distinct sites ≠ home, with the branch and
// bound's node budget as a parameter. WalkAbove's budget of 2^(q−2)
// nodes, each an O(q²) spanning tree, costs about as much as the
// 2^q·q-state Held–Karp it falls back to.
func (s *Solver) walkAbove(m graph.Metric, home graph.NodeID, sites []graph.NodeID, floor int64, budget int) (int64, Outcome) {
	q := len(sites)
	if q < 2 || q > ExactLimit {
		return s.walk(m, home, sites).LB, Solved
	}
	s.fillPairwise(m, home, sites)
	if s.cert.load(s.dt, q) {
		ub := s.cert.upper(q, floor)
		if ub <= floor {
			return ub, Pruned
		}
		if s.cert.lower(q, ub) == ub {
			return ub, Certified
		}
		if walk, how := s.cert.branch(q, ub, floor, budget); how != Solved {
			return walk, how
		}
	}
	return slices.Min(s.heldKarp(q)), Solved
}

// load fills c from the transposed matrix dt over home and q sites. It
// reports false when dt is asymmetric or holds a distance outside [0,
// certMaxDist].
func (c *certScratch) load(dt []int64, q int) bool {
	n, w := q+1, q+2
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			d := dt[j*n+i]
			if d != dt[i*n+j] || d < 0 || d > certMaxDist {
				return false
			}
			c.c[i*w+j], c.c[j*w+i] = d, d
		}
		c.c[i*w+q+1], c.c[(q+1)*w+i] = 0, 0
	}
	c.c[(q+1)*w+q+1] = 0
	return true
}

// upper returns the shortest walk the local search finds, leaving it in
// best: nearest-neighbour from home through each site first, improved by
// 2-opt and Or-opt. It stops early once a walk is ≤ floor.
func (c *certScratch) upper(q int, floor int64) int64 {
	best := int64(math.MaxInt64)
	for first := int32(1); first <= int32(q) && best > floor; first++ {
		if l := c.improve(q, c.nearest(q, first)); l < best {
			best = l
			c.best = c.cur
		}
	}
	return best
}

// nearest builds in cur the walk home → first → nearest unvisited site
// (lowest index on ties) → … → dummy, and returns its length.
func (c *certScratch) nearest(q int, first int32) int64 {
	w := q + 2
	p := c.cur[:]
	p[0], p[1], p[q+1] = 0, first, int32(q+1)
	visited := uint32(1)<<0 | uint32(1)<<first
	length := c.c[first]
	for pos := 2; pos <= q; pos++ {
		row := c.c[int(p[pos-1])*w:]
		next, bd := int32(-1), int64(math.MaxInt64)
		for v := int32(1); v <= int32(q); v++ {
			if visited&(1<<v) == 0 && row[v] < bd {
				next, bd = v, row[v]
			}
		}
		p[pos] = next
		visited |= 1 << next
		length += bd
	}
	return length
}

// improve runs 2-opt and Or-opt (segments of 1–3 sites, either
// orientation) on the walk in cur, taking every improving move it meets,
// until neither finds one. Home stays first and the dummy last, so the
// result is still a walk from home; it returns the walk's length.
func (c *certScratch) improve(q int, length int64) int64 {
	w := q + 2
	p := c.cur[:]
	d := func(u, v int32) int64 { return c.c[int(u)*w+int(v)] }
	for improved := true; improved; {
		improved = false
		for i := 1; i < q; i++ {
			for j := i + 1; j <= q; j++ {
				a, b, x, y := p[i-1], p[i], p[j], p[j+1]
				if delta := d(a, x) + d(b, y) - d(a, b) - d(x, y); delta < 0 {
					slices.Reverse(p[i : j+1])
					length += delta
					improved = true
				}
			}
		}
		for seg := 1; seg <= 3; seg++ {
			for i := 1; i+seg-1 <= q; i++ {
				e := i + seg - 1
				a, f, l, b := p[i-1], p[i], p[e], p[e+1]
				gain := d(a, f) + d(l, b) - d(a, b)
				bestAdd, at, rev := gain, -1, false
				for k := 0; k <= q; k++ {
					if k >= i-1 && k <= e {
						continue
					}
					x, y := p[k], p[k+1]
					base := d(x, y)
					if add := d(x, f) + d(l, y) - base; add < bestAdd {
						bestAdd, at, rev = add, k, false
					}
					if add := d(x, l) + d(f, y) - base; add < bestAdd {
						bestAdd, at, rev = add, k, true
					}
				}
				if at < 0 {
					continue
				}
				// Rotate the segment next to p[at] with three reversals,
				// then flip it if the reversed orientation won.
				lo := at + 1
				if at < i {
					slices.Reverse(p[at+1 : i])
					slices.Reverse(p[i : e+1])
					slices.Reverse(p[at+1 : e+1])
				} else {
					slices.Reverse(p[i : e+1])
					slices.Reverse(p[e+1 : at+1])
					slices.Reverse(p[i : at+1])
					lo = at - seg + 1
				}
				if rev {
					slices.Reverse(p[lo : lo+seg])
				}
				length += bestAdd - gain
				improved = true
			}
		}
	}
	return length
}

// lower returns the 1-tree Lagrangian low end of the walk, certified in
// integers: at most lagrangeIters subgradient steps in float64, with ub as
// the Polyak target and a step scale that halves after lagrangeStall
// iterations without a better bound. It returns as soon as the integer
// bound reaches ub.
func (c *certScratch) lower(q int, ub int64) int64 {
	n := q + 1
	pen := c.pen[:n]
	clear(pen)
	var lb int64
	best := math.Inf(-1)
	scale, stall := 2.0, 0
	for it := 0; it < lagrangeIters; it++ {
		bound := c.oneTree(q, pen)
		if bound > best {
			best, stall = bound, 0
			c.bestPen = c.pen
		} else if stall++; stall == lagrangeStall {
			scale, stall = scale/2, 0
		}
		if bound > float64(ub-1) {
			if lb = max(lb, c.certify(q, pen)); lb >= ub {
				return lb
			}
		}
		var norm float64
		for _, d := range c.deg[:n] {
			norm += float64((d - 2) * (d - 2))
		}
		if norm == 0 {
			break // the 1-tree is a walk, so bound is its length
		}
		step := scale * (float64(ub) - bound) / norm
		for i, d := range c.deg[:n] {
			pen[i] += step * float64(d-2)
		}
	}
	return max(lb, c.certify(q, c.bestPen[:]))
}

// oneTree returns the Lagrangian value of pen in float64 and leaves the
// 1-tree's degrees in deg: the MST over home and sites under the
// penalised weights d(u, v) + pen[u] + pen[v], plus the dummy's two
// edges (the forced one to home, and the cheapest to a site), minus
// 2·Σpen. The dummy's own penalty cancels, so it has none.
func (c *certScratch) oneTree(q int, pen []float64) float64 {
	n, w := q+1, q+2
	key, parent, deg, in := c.fkey[:n], c.parent[:n], c.deg[:n], c.done[:n]
	for i := range key {
		key[i], parent[i], deg[i], in[i] = math.Inf(1), -1, 0, false
	}
	key[0] = 0
	var total float64
	for iter := 0; iter < n; iter++ {
		u := -1
		for i := 0; i < n; i++ {
			if !in[i] && (u < 0 || key[i] < key[u]) {
				u = i
			}
		}
		in[u] = true
		total += key[u]
		if p := parent[u]; p >= 0 {
			deg[u]++
			deg[p]++
		}
		row := c.c[u*w : u*w+n]
		for i, d := range row {
			if v := float64(d) + pen[u] + pen[i]; !in[i] && v < key[i] {
				key[i], parent[i] = v, int32(u)
			}
		}
	}
	m := 1
	for i := 2; i <= q; i++ {
		if pen[i] < pen[m] {
			m = i
		}
	}
	deg[0]++
	deg[m]++
	total += pen[0] + pen[m]
	for _, p := range pen[:n] {
		total -= 2 * p
	}
	return total
}

// certify recomputes the Lagrangian value of pen in integers and returns
// ⌈L/K⌉, a sound low end whatever the float arithmetic did: it rounds
// the penalties to multiples of 1/K, and any penalty vector bounds every
// walk from below (each node has degree 2 on the tour a walk closes
// through the dummy, so the penalties add exactly 2·Σpen to it, and that
// tour is itself a 1-tree). Scaled by K, every weight is an integer and
// the recompute is exact; the walk's length is an integer, so rounding
// L/K up stays at or below it. Penalties beyond certMaxPen (or NaN)
// certify nothing and return 0. The value is bound's over the whole
// walk: the 1-tree's dummy edges to home and to the site of least
// penalty are the −ip_home and +min ip terms of the open path's bound.
func (c *certScratch) certify(q int, pen []float64) int64 {
	if !c.round(q, pen) {
		return 0
	}
	return c.bound(q, 0, uint32(1)<<(q+1)-2)
}

// round fills ipen with pen's penalties in units of 1/K. It reports
// false when a penalty is beyond certMaxPen or NaN.
func (c *certScratch) round(q int, pen []float64) bool {
	for i, p := range pen[:q+1] {
		if !(math.Abs(p) <= certMaxPen) {
			return false
		}
		c.ipen[i] = int64(math.Round(p * lagrangeScale))
	}
	return true
}

// bound returns a sound low end, in integers, on every path from index j
// through the sites in rest (a mask of matrix indices, j not in it):
//
//	⌈(MST_K({j} ∪ rest) − ip_j − 2·Σ_rest ip + min_rest ip) / K⌉,
//
// with MST_K the spanning tree under the weights K·c(u, v) + ip_u +
// ip_v, for the penalties ip in ipen. A path from j that ends at e ∈
// rest is a spanning tree of {j} ∪ rest, and under those weights it
// weighs K times its length plus ip_j + 2·Σ_rest ip − ip_e, since every
// inner node has degree 2; that is at least MST_K, and ip_e ≥ min_rest
// ip. The length is an integer, so the quotient rounds up. Over the
// whole walk (j = home, every site in rest) this is certify's 1-tree.
func (c *certScratch) bound(q, j int, rest uint32) int64 {
	w := q + 2
	ip, key := &c.ipen, &c.ikey
	row, pj := c.c[j*w:], ip[j]
	var total, sum int64
	low := int64(math.MaxInt64)
	for r := rest; r != 0; r &= r - 1 {
		v := bits.TrailingZeros32(r)
		key[v] = lagrangeScale*row[v] + pj + ip[v]
		sum += ip[v]
		low = min(low, ip[v])
	}
	for left := rest; left != 0; {
		u, best := 0, int64(math.MaxInt64)
		for r := left; r != 0; r &= r - 1 {
			if v := bits.TrailingZeros32(r); key[v] < best {
				u, best = v, key[v]
			}
		}
		total += best
		left &^= 1 << u
		row, pu := c.c[u*w:], ip[u]
		for r := left; r != 0; r &= r - 1 {
			v := bits.TrailingZeros32(r)
			key[v] = min(key[v], lagrangeScale*row[v]+pu+ip[v])
		}
	}
	total += low - pj - 2*sum
	if total <= 0 {
		return 0
	}
	return (total + lagrangeScale - 1) / lagrangeScale
}

// branch closes a walk the certificate left open, by a depth-first
// branch and bound over walk prefixes from home: children nearest first,
// each prefix bounded by its length plus bound over the sites it has not
// visited, under the certificate's best penalties rounded as certify
// rounds them (zero when they are beyond certMaxPen). The incumbent
// starts at ub, the local search's walk; a prefix whose bound reaches it
// is pruned. It returns the optimum as Branched, or the first walk ≤
// floor as Pruned. When the search needs more than budget prefixes
// (walks of one site left are completed, not counted) it returns
// Solved, and Held–Karp must decide the walk.
func (c *certScratch) branch(q int, ub, floor int64, budget int) (int64, Outcome) {
	if !c.round(q, c.bestPen[:]) {
		clear(c.ipen[:q+1])
	}
	c.inc, c.floor, c.left = ub, floor, budget
	if !c.search(q, 0, 0, uint32(1)<<(q+1)-2, 0) {
		return 0, Solved
	}
	if c.inc <= floor {
		return c.inc, Pruned
	}
	return c.inc, Branched
}

// search extends a prefix of the given length, at the given depth, that
// ends at index j, over the sites in rest, lowering inc whenever it
// completes a shorter walk. It returns false when the node budget runs
// out; once inc ≤ floor, it returns true without searching further.
func (c *certScratch) search(q, depth, j int, rest uint32, length int64) bool {
	row := c.c[j*(q+2):]
	if rest&(rest-1) == 0 {
		c.inc = min(c.inc, length+row[bits.TrailingZeros32(rest)])
		return true
	}
	if c.left == 0 {
		return false
	}
	c.left--
	if length+c.bound(q, j, rest) >= c.inc {
		return true
	}
	kids, n := &c.kids[depth], 0
	for r := rest; r != 0; r &= r - 1 {
		v := int8(bits.TrailingZeros32(r))
		i := n
		for ; i > 0 && row[kids[i-1]] > row[v]; i-- {
			kids[i] = kids[i-1]
		}
		kids[i] = v
		n++
	}
	for _, v := range kids[:n] {
		if length+row[v] >= c.inc {
			continue
		}
		if !c.search(q, depth+1, int(v), rest&^(1<<v), length+row[v]) {
			return false
		}
		if c.inc <= c.floor {
			return true
		}
	}
	return true
}
