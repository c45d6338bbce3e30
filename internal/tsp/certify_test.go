package tsp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dtmsched/internal/graph"
	"dtmsched/internal/topology"
)

// certMetric is a metric over nodes 0..nodes−1.
type certMetric struct {
	name  string
	m     graph.Metric
	nodes int
}

// certMetrics returns the metric families the certificate is checked on:
// a 12×12 grid, a 4×8 cluster graph with bridges of weight 16, and
// random connected weighted graphs (a random tree plus extra edges).
func certMetrics(r *rand.Rand) []certMetric {
	cluster := topology.NewCluster(4, 8, 16)
	out := []certMetric{
		{"grid12", gridMetric(12), 144},
		{"cluster4x8", graph.FuncMetric(cluster.Dist), 32},
	}
	for i := 0; i < 3; i++ {
		n := 24 + r.Intn(24)
		g := graph.New(n)
		perm := r.Perm(n)
		for v := 1; v < n; v++ {
			g.AddEdge(graph.NodeID(perm[v]), graph.NodeID(perm[r.Intn(v)]), 1+r.Int63n(9))
		}
		for e := r.Intn(2 * n); e > 0; e-- {
			if u, v := r.Intn(n), r.Intn(n); u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1+r.Int63n(9))
			}
		}
		out = append(out, certMetric{"random", g, n})
	}
	return out
}

// TestCertificateMatchesHeldKarp is the certificate's differential test:
// on random site sets of 2..ExactLimit sites over grid, cluster and
// random weighted-graph metrics, the integer low end never exceeds
// Held–Karp, the local-search high end never falls below it and equals
// the length of the walk it leaves, and WalkAbove returns Held–Karp's
// value whenever it reports the walk certified or solved, and a value ≤
// floor (with Held–Karp ≤ floor) whenever it prunes. One Solver serves
// every set, so the scratch is entered at every size. Each metric family
// must certify some walks.
func TestCertificateMatchesHeldKarp(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var s Solver
	for _, mt := range certMetrics(r) {
		certified := 0
		for trial := 0; trial < 120; trial++ {
			q := 2 + r.Intn(min(ExactLimit, mt.nodes-1)-1)
			nodes := make([]graph.NodeID, q+1)
			for i, v := range r.Perm(mt.nodes)[:q+1] {
				nodes[i] = graph.NodeID(v)
			}
			home, sites := nodes[0], nodes[1:]

			s.fillPairwise(mt.m, home, sites)
			if !s.cert.load(s.dt, q) {
				t.Fatalf("%s q=%d: symmetric matrix rejected", mt.name, q)
			}
			ub := s.cert.upper(q, math.MinInt64)
			lb := s.cert.lower(q, ub)
			opt := slices.Min(s.heldKarp(q))
			if lb > opt || opt > ub {
				t.Fatalf("%s q=%d: certificate [%d, %d], Held–Karp %d", mt.name, q, lb, ub, opt)
			}
			p := s.cert.best[:q+2]
			if p[0] != 0 || p[q+1] != int32(q+1) {
				t.Fatalf("%s q=%d: walk %v does not run from home to the dummy", mt.name, q, p)
			}
			seen := make([]bool, q+1)
			var length int64
			cur := home
			for _, i := range p[1 : q+1] {
				if i < 1 || int(i) > q || seen[i] {
					t.Fatalf("%s q=%d: walk %v is not a permutation of the sites", mt.name, q, p)
				}
				seen[i] = true
				length += mt.m.Dist(cur, sites[i-1])
				cur = sites[i-1]
			}
			if length != ub {
				t.Fatalf("%s q=%d: high end %d, its walk's length %d", mt.name, q, ub, length)
			}

			walk, how := s.WalkAbove(mt.m, home, sites, -1)
			if how == Pruned || walk != opt {
				t.Fatalf("%s q=%d: WalkAbove(floor -1) = %d (outcome %d), Held–Karp %d", mt.name, q, walk, how, opt)
			}
			if how == Certified {
				certified++
			}
			floor := opt - 1 + r.Int63n(3)
			switch walk, how := s.WalkAbove(mt.m, home, sites, floor); {
			case how == Pruned && (walk > floor || opt > floor):
				t.Fatalf("%s q=%d: pruned at floor %d with %d, Held–Karp %d", mt.name, q, floor, walk, opt)
			case how != Pruned && walk != opt:
				t.Fatalf("%s q=%d: WalkAbove(floor %d) = %d (outcome %d), Held–Karp %d", mt.name, q, floor, walk, how, opt)
			}
		}
		if certified == 0 {
			t.Errorf("%s: no walk certified", mt.name)
		}
	}
}

// TestCertifyRecomputesInIntegers: adding one constant C to every
// penalty leaves the Lagrangian value unchanged in exact arithmetic, and
// on home 0 with sites up a line that value is the optimal walk (the
// MST is the walk). With C near 10⁹ and a fractional part, float64
// cancellation puts oneTree's value above the optimum for some C, so
// rounding it up would overstate the bound; certify's integer recompute
// must stay at or below the optimum for every C.
func TestCertifyRecomputesInIntegers(t *testing.T) {
	sites := []graph.NodeID{3, 7, 12, 20, 26, 31}
	const opt = 31
	q := len(sites)
	var s Solver
	s.fillPairwise(lineMetric{}, 0, sites)
	if !s.cert.load(s.dt, q) {
		t.Fatal("line matrix rejected")
	}
	pen := make([]float64, q+1)
	over := 0
	for k := 0; k < 200; k++ {
		for i := range pen {
			pen[i] = 1e9 + 0.37*float64(k)
		}
		if math.Ceil(s.cert.oneTree(q, pen)) > opt {
			over++
		}
		if lb := s.cert.certify(q, pen); lb > opt {
			t.Fatalf("C = %.2f: integer bound %d above the optimum %d", pen[0], lb, opt)
		}
	}
	if over == 0 {
		t.Fatal("no C made the float value overstate the optimum; the case tests nothing")
	}
	if got := s.Walk(lineMetric{}, 0, sites); got.LB != opt {
		t.Fatalf("Held–Karp walk %d, want %d", got.LB, opt)
	}
}

// TestWalkAboveWarmZeroAllocs: the certificate's scratch lives on the
// Solver, so once warm, WalkAbove allocates nothing, both on a 12×12
// grid walk the certificate closes and on one it leaves to Held–Karp.
func TestWalkAboveWarmZeroAllocs(t *testing.T) {
	var s Solver
	for _, tc := range []struct {
		seed int64
		q    int
		want Outcome
	}{{3, ExactLimit, Certified}, {4, 12, Solved}} {
		var nodes []graph.NodeID
		for _, v := range rand.New(rand.NewSource(tc.seed)).Perm(144)[:tc.q+1] {
			nodes = append(nodes, graph.NodeID(v))
		}
		if _, how := s.WalkAbove(gridMetric(12), nodes[0], nodes[1:], -1); how != tc.want {
			t.Fatalf("seed %d q=%d: outcome %d, want %d", tc.seed, tc.q, how, tc.want)
		}
		if allocs := testing.AllocsPerRun(5, func() {
			s.WalkAbove(gridMetric(12), nodes[0], nodes[1:], -1)
		}); allocs != 0 {
			t.Fatalf("seed %d q=%d: %v allocs per warm WalkAbove, want 0", tc.seed, tc.q, allocs)
		}
	}
}
