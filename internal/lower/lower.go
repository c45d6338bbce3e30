// Package lower computes certified execution-time lower bounds for problem
// instances. Every approximation ratio the benchmark harness reports uses
// these bounds as its denominator, exactly as the paper's proofs do:
//
//   - ℓ = max objects' requester counts: an object's requesters execute at
//     pairwise-distinct steps separated by ≥ 1, so the makespan is ≥ ℓ
//     (Theorem 1's lower bound);
//   - the longest shortest walk of any object from its home through all of
//     its requesters (the TSP-style bound of Sections 4 and 8);
//   - h_max, the largest distance between two conflicting transactions
//     (Section 2.3).
//
// Because these are true lower bounds on the optimum, measured ratios
// (makespan / bound) can only overstate an algorithm's distance from
// optimal, never understate it.
//
// The bound depends only on the instance, so the package provides two
// computations and a cache: Value is the value path (closed-form tree
// walks, MST low ends above tsp.ExactLimit, brackets, then a certificate
// and Held–Karp only for objects that could still raise the maximum; no
// tours and no walk upper ends), Compute solves every object's walk and tour and keeps them
// as witnesses for the tour-gap experiments, and Oracle publishes one
// Value per instance so repeated queries cost a pointer load. Both paths
// agree on Value, MaxUse, MaxWalkLB and ExactObjects/BoundedObjects.
package lower

import (
	"sync"

	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/tsp"
)

// ObjectDetail records the per-object quantities entering the bound.
type ObjectDetail struct {
	Object tm.ObjectID
	// Users is |A_i|: how many transactions request the object.
	Users int
	// Walk bounds the object's shortest home-rooted walk through all
	// its requesters.
	Walk tsp.Bounds
	// Tour bounds the object's optimal TSP tour through its requesters
	// (Theorem 6's measure).
	Tour tsp.Bounds
}

// LB returns the object's certified execution-time lower bound.
func (d ObjectDetail) LB() int64 {
	lb := int64(d.Users)
	if d.Walk.LB > lb {
		lb = d.Walk.LB
	}
	return lb
}

// Bound is the instance-level certified lower bound with its witnesses.
type Bound struct {
	// Value is the lower bound on the optimal makespan, ≥ 1 whenever
	// the instance has at least one transaction.
	Value int64
	// MaxUse is ℓ.
	MaxUse int
	// MaxWalkLB / MaxWalkUB bracket the longest shortest object walk.
	// MaxWalkUB is witness-only: zero on the value path, which computes
	// no walk upper ends.
	MaxWalkLB, MaxWalkUB int64
	// MaxTourLB / MaxTourUB bracket the longest optimal object TSP tour.
	// Zero on the value path, which solves no tours.
	MaxTourLB, MaxTourUB int64
	// ExactObjects counts requested objects whose walk has at most
	// tsp.ExactLimit distinct sites and is therefore known exactly (or
	// proven unable to raise the maximum); BoundedObjects counts those
	// with more sites, whose walk is only bounded: by the MST/heuristic
	// bracket on the witness path, by the MST low end on the value path.
	ExactObjects, BoundedObjects int
	// ClosedFormObjects, PrunedObjects, CertifiedObjects and
	// BranchedObjects split ExactObjects on the value path: walks settled
	// without Held–Karp (at most one site, the tree closed form, or a
	// bracket whose ends meet), walks whose bracket, certificate or
	// branch-and-bound walk showed they cannot raise MaxWalkLB, so they
	// were never solved, walks the certificate closed, and walks the
	// branch and bound closed (tsp.Solver.WalkAbove). The rest,
	// ExactObjects − ClosedFormObjects − PrunedObjects −
	// CertifiedObjects − BranchedObjects, went through Held–Karp after
	// the branch and bound ran out of nodes. All four are zero on the
	// witness path, which solves every object.
	ClosedFormObjects, PrunedObjects, CertifiedObjects, BranchedObjects int
	// PerObject has one entry per object that is requested at all.
	// Witness-only: empty on the value path.
	PerObject []ObjectDetail
}

// scratch is the pooled state of one bound computation: a tsp.Solver,
// so a computation that reaches Held–Karp reuses a table (2^q·q cells,
// 8 MiB at q = 16) instead of allocating and zeroing a fresh one, and the
// slices Value and Compute refill per object, so a warm Value call
// allocates nothing. Compute solves every walk with Held–Karp; Value
// grows the table only for a walk whose branch and bound ran out of
// nodes. Pooled scratch keeps its tables until the GC empties the pool.
type scratch struct {
	s            *tsp.Solver
	sites, terms []graph.NodeID
	cands        []candidate
	rank         []int32
	stack        []graph.NodeID
}

var scratches = sync.Pool{New: func() any { return &scratch{s: tsp.NewSolver()} }}

// Compute derives the certified bound for an instance with full
// witnesses: it solves every requested object's walk and tour on one
// pooled solver, in object order, and fills every field of Bound.
// Callers that only need the scalar bound use Value.
func Compute(in *tm.Instance) Bound {
	var b Bound
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	s := sc.s
	for o := 0; o < in.NumObjects; o++ {
		oid := tm.ObjectID(o)
		users := in.Users(oid)
		if len(users) == 0 {
			continue
		}
		sc.sites = objectSites(in, users, sc.sites[:0])
		d := ObjectDetail{
			Object: oid,
			Users:  len(users),
			Walk:   s.Walk(in.Metric, in.Home[oid], sc.sites),
			Tour:   s.Tour(in.Metric, sc.sites),
		}
		b.PerObject = append(b.PerObject, d)
		if d.Walk.Exact {
			b.ExactObjects++
		} else {
			b.BoundedObjects++
		}
		b.MaxUse = max(b.MaxUse, d.Users)
		b.MaxWalkLB = max(b.MaxWalkLB, d.Walk.LB)
		b.MaxWalkUB = max(b.MaxWalkUB, d.Walk.UB)
		b.MaxTourLB = max(b.MaxTourLB, d.Tour.LB)
		b.MaxTourUB = max(b.MaxTourUB, d.Tour.UB)
		b.Value = max(b.Value, d.LB())
	}
	if b.Value < 1 && in.NumTxns() > 0 {
		b.Value = 1
	}
	return b
}

// ClusterSigma returns σ: the maximum, over objects, of the number of
// distinct clusters containing a requester of the object (Section 6).
// Distinct clusters are counted with one epoch-stamped slice reused
// across objects instead of a per-object map.
func ClusterSigma(in *tm.Instance, c *topology.ClusterGraph) int {
	sigma := 0
	stamp := make([]int, c.Alpha())
	for o := 0; o < in.NumObjects; o++ {
		epoch := o + 1
		count := 0
		for _, id := range in.Users(tm.ObjectID(o)) {
			cl := c.ClusterOf(in.Txns[id].Node)
			if stamp[cl] != epoch {
				stamp[cl] = epoch
				count++
			}
		}
		if count > sigma {
			sigma = count
		}
	}
	return sigma
}

// ClusterLB is the Section 6 lower bound Ω(σγ): an object used in σ
// clusters must cross σ−1 bridges of weight γ. It is implied by the walk
// bound but reported separately so experiments can show both.
func ClusterLB(in *tm.Instance, c *topology.ClusterGraph) int64 {
	sigma := ClusterSigma(in, c)
	if sigma <= 1 {
		return 1
	}
	return int64(sigma-1) * c.Gamma()
}

// StarSigma returns, for segment set index i of the star decomposition,
// the maximum number of distinct ray segments of V_i that any object must
// visit (the paper's σ_i). Distinct rays are counted with one
// epoch-stamped slice reused across objects instead of a per-object map.
func StarSigma(in *tm.Instance, s *topology.Star, segIndex int) int {
	segs := s.Segments(segIndex)
	if len(segs) == 0 {
		return 0
	}
	lo, hi := segs[0].Lo, segs[0].Hi
	sigma := 0
	stamp := make([]int, s.Alpha())
	for o := 0; o < in.NumObjects; o++ {
		epoch := o + 1
		count := 0
		for _, id := range in.Users(tm.ObjectID(o)) {
			ray, pos := s.RayOf(in.Txns[id].Node)
			if ray >= 0 && pos >= lo && pos <= hi && stamp[ray] != epoch {
				stamp[ray] = epoch
				count++
			}
		}
		if count > sigma {
			sigma = count
		}
	}
	return sigma
}
