package lower

import (
	"cmp"
	"slices"

	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
	"dtmsched/internal/tsp"
)

// candidate is an object whose walk bracket did not close: its exact walk
// lies in [lo, hi] and only WalkAbove's later stages can tell where.
type candidate struct {
	obj tm.ObjectID
	hi  int64
}

// Value is the value path: it returns the scalars of Compute that the
// certified bound needs (Value, MaxUse, MaxWalkLB, ExactObjects,
// BoundedObjects) without solving tours or computing walk upper ends,
// and decides exactly only the walks that might raise the longest one:
// bracket → certificate → branch and bound → DP. Per requested object
// with walk set S (its distinct requester sites other than home):
//
//  1. |S| > tsp.ExactLimit: the MST weight over home ∪ S
//     (tsp.Solver.WalkLB), the witness path's low end;
//  2. |S| ≤ 1: the walk is 0 or one distance;
//  3. in.G is a tree: the exact walk is 2·Steiner(home ∪ S) minus the
//     farthest site from home (treeWalk);
//  4. otherwise the MST/heuristic bracket [lo, hi]: exact when lo == hi,
//     else a candidate.
//
// The running maximum starts from every exact walk, every lo, and every
// case-1 lower bound. Candidates are visited by hi descending (object ID
// breaking ties), and only while hi exceeds the maximum: a skipped
// object's walk is ≤ hi ≤ the maximum. Each visited candidate goes to
// tsp.Solver.WalkAbove with the maximum as its floor. Its certificate
// prunes the walk when a local-search walk is no longer than the
// maximum, and settles it when the integer 1-tree bound meets that
// walk. Otherwise its branch and bound settles the walk, or prunes it on
// finding a walk no longer than the maximum; only when the search runs
// out of nodes does Held–Karp run. Either way the maximum becomes what
// the witness path's would be, so MaxWalkLB equals the witness path's.
// The witness-only fields (MaxWalkUB, MaxTour*, PerObject) stay zero.
func Value(in *tm.Instance) Bound {
	var (
		b     Bound
		maxLB int64
	)
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	s, sites, terms, cands := sc.s, sc.sites, sc.terms, sc.cands[:0]
	m := in.Metric
	rank := sc.treeRank(in.G)
	for o := 0; o < in.NumObjects; o++ {
		oid := tm.ObjectID(o)
		users := in.Users(oid)
		if len(users) == 0 {
			continue
		}
		b.MaxUse = max(b.MaxUse, len(users))
		home := in.Home[oid]
		sites = objectSites(in, users, sites[:0])
		set := s.Distinct(sites, home)
		var walk int64
		switch {
		case len(set) > tsp.ExactLimit:
			b.BoundedObjects++
			maxLB = max(maxLB, s.WalkLB(m, home, set))
			continue
		case len(set) == 0:
			b.ClosedFormObjects++
		case len(set) == 1:
			walk = m.Dist(home, set[0])
			b.ClosedFormObjects++
		case rank != nil:
			terms = append(append(terms[:0], home), set...)
			walk = treeWalk(m, rank, terms)
			b.ClosedFormObjects++
		default:
			br := s.Bracket(m, home, sites)
			walk = br.LB
			if br.Exact {
				b.ClosedFormObjects++
			} else {
				cands = append(cands, candidate{obj: oid, hi: br.UB})
			}
		}
		b.ExactObjects++
		maxLB = max(maxLB, walk)
	}

	slices.SortFunc(cands, func(x, y candidate) int {
		if c := cmp.Compare(y.hi, x.hi); c != 0 {
			return c
		}
		return cmp.Compare(x.obj, y.obj)
	})
	for i, c := range cands {
		if c.hi <= maxLB {
			// hi only falls from here on and maxLB only rises.
			b.PrunedObjects += len(cands) - i
			break
		}
		sites = objectSites(in, in.Users(c.obj), sites[:0])
		walk, how := s.WalkAbove(m, in.Home[c.obj], sites, maxLB)
		switch how {
		case tsp.Pruned:
			b.PrunedObjects++
		case tsp.Certified:
			b.CertifiedObjects++
		case tsp.Branched:
			b.BranchedObjects++
		}
		maxLB = max(maxLB, walk)
	}

	sc.sites, sc.terms, sc.cands = sites, terms, cands
	b.MaxWalkLB = maxLB
	b.Value = max(int64(b.MaxUse), maxLB)
	if b.Value < 1 && in.NumTxns() > 0 {
		b.Value = 1
	}
	return b
}

// objectSites appends the nodes of users' transactions to buf, in user
// order.
func objectSites(in *tm.Instance, users []tm.TxnID, buf []graph.NodeID) []graph.NodeID {
	for _, id := range users {
		buf = append(buf, in.Txns[id].Node)
	}
	return buf
}

// treeRank returns every node's DFS preorder rank when g is a tree
// (n − 1 edges and connected), else nil. Any other edge count is
// rejected in O(1). The ranks and the DFS stack live on sc, so the
// returned slice is valid until sc's next treeRank.
func (sc *scratch) treeRank(g *graph.Graph) []int32 {
	n := g.NumNodes()
	if n == 0 || g.NumEdges() != n-1 {
		return nil
	}
	if cap(sc.rank) < n {
		sc.rank = make([]int32, n)
	}
	rank := sc.rank[:n]
	for i := range rank {
		rank[i] = -1
	}
	stack := append(sc.stack[:0], 0)
	next := int32(0)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if rank[u] >= 0 {
			continue
		}
		rank[u] = next
		next++
		for _, e := range g.Neighbors(u) {
			if rank[e.To] < 0 {
				stack = append(stack, e.To)
			}
		}
	}
	sc.stack = stack
	if int(next) != n {
		return nil
	}
	return rank
}

// treeWalk returns the exact shortest walk from terms[0] (the home)
// through terms[1:] on a tree metric. Visiting the terminals in DFS
// preorder and returning traverses every Steiner-tree edge twice, so the
// cyclic sum of consecutive distances is 2·Steiner; an optimal walk ends
// at the site farthest from home instead of returning. Reorders terms.
func treeWalk(m graph.Metric, rank []int32, terms []graph.NodeID) int64 {
	home := terms[0]
	var far int64
	for _, v := range terms[1:] {
		far = max(far, m.Dist(home, v))
	}
	for i := 1; i < len(terms); i++ {
		for j := i; j > 0 && rank[terms[j]] < rank[terms[j-1]]; j-- {
			terms[j], terms[j-1] = terms[j-1], terms[j]
		}
	}
	twice := m.Dist(terms[len(terms)-1], terms[0])
	for i := 1; i < len(terms); i++ {
		twice += m.Dist(terms[i-1], terms[i])
	}
	return twice - far
}
