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
// value whenever it reports the walk certified, branched or solved, and
// a value ≤ floor (with Held–Karp ≤ floor) whenever it prunes. Its branch
// leg runs the branch and bound with no floor on every walk the
// certificate leaves open: it must return Held–Karp's value as Branched
// or report that its budget ran out. One Solver serves every set, so the
// scratch is entered at every size. Each metric family must certify some
// walks, and each but the cluster graph must branch-close some: there
// the certificate leaves about one walk in 2000 open, all of them with
// too few sites for a budget of more than a few nodes.
func TestCertificateMatchesHeldKarp(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var s Solver
	for _, mt := range certMetrics(r) {
		certified, branched := 0, 0
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
			if lb < ub {
				switch walk, how := s.cert.branch(q, ub, math.MinInt64, 1<<(q-2)); {
				case how == Branched && walk == opt:
					branched++
				case how != Solved:
					t.Fatalf("%s q=%d: branch and bound %d (outcome %d), Held–Karp %d", mt.name, q, walk, how, opt)
				}
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
		if branched == 0 && mt.name != "cluster4x8" {
			t.Errorf("%s: no walk branch-closed", mt.name)
		}
		t.Logf("%s: %d certified, %d branched", mt.name, certified, branched)
	}
}

// openWalks draws site sets of qLo..qHi sites on the 12×12 grid from
// seed and returns the first count whose certificate stays open (its
// integer low end below its local-search high end), each as home and
// then its sites. It fails tb when 100·count draws do not find them.
func openWalks(tb testing.TB, seed int64, qLo, qHi, count int) [][]graph.NodeID {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	var s Solver
	var out [][]graph.NodeID
	for draw := 0; len(out) < count; draw++ {
		if draw == 100*count {
			tb.Fatalf("%d of %d draws left the certificate open, want %d", len(out), draw, count)
		}
		q := qLo + r.Intn(qHi-qLo+1)
		nodes := make([]graph.NodeID, q+1)
		for i, v := range r.Perm(144)[:q+1] {
			nodes[i] = graph.NodeID(v)
		}
		s.fillPairwise(gridMetric(12), nodes[0], nodes[1:])
		s.cert.load(s.dt, q)
		if ub := s.cert.upper(q, math.MinInt64); s.cert.lower(q, ub) < ub {
			out = append(out, nodes)
		}
	}
	return out
}

// TestBranchBudgetFallsBackToHeldKarp: a branch and bound with a budget
// of one node expands the root and runs out at its first child, so
// walkAbove must hand the walk to Held–Karp and return its value as
// Solved, while the 2^(q−2) budget closes the same walks as Branched.
// A warm repeat reuses the Held–Karp table and allocates nothing.
func TestBranchBudgetFallsBackToHeldKarp(t *testing.T) {
	var s Solver
	for _, nodes := range openWalks(t, 7, 10, ExactLimit, 8) {
		home, sites := nodes[0], nodes[1:]
		q := len(sites)
		opt := s.Walk(gridMetric(12), home, sites).LB
		if walk, how := s.walkAbove(gridMetric(12), home, sites, -1, 1); how != Solved || walk != opt {
			t.Fatalf("q=%d, budget 1: %d (outcome %d), want Held–Karp's %d as Solved", q, walk, how, opt)
		}
		if walk, how := s.WalkAbove(gridMetric(12), home, sites, -1); how != Branched || walk != opt {
			t.Fatalf("q=%d, budget 2^(q−2): %d (outcome %d), want %d as Branched", q, walk, how, opt)
		}
		s.walkAbove(gridMetric(12), home, sites, -1, 1)
		if allocs := testing.AllocsPerRun(5, func() {
			s.walkAbove(gridMetric(12), home, sites, -1, 1)
		}); allocs != 0 {
			t.Fatalf("q=%d: %v allocs per warm fallback, want 0", q, allocs)
		}
	}
}

// TestBranchStopsAtFloor: on open walks whose local search missed the
// optimum, WalkAbove with a floor in [OPT, high end) reaches the branch
// and bound, which must stop at a walk no longer than the floor (and no
// shorter than OPT) and return it as Pruned. With the floor one below
// OPT, no walk is ≤ floor, so it must return OPT unpruned.
func TestBranchStopsAtFloor(t *testing.T) {
	var s Solver
	tested := 0
	for _, nodes := range openWalks(t, 8, 8, ExactLimit, 200) {
		home, sites := nodes[0], nodes[1:]
		q := len(sites)
		opt := s.Walk(gridMetric(12), home, sites).LB
		s.fillPairwise(gridMetric(12), home, sites)
		s.cert.load(s.dt, q)
		ub := s.cert.upper(q, math.MinInt64)
		if walk, how := s.WalkAbove(gridMetric(12), home, sites, opt-1); how == Pruned || walk != opt {
			t.Fatalf("q=%d floor %d: %d (outcome %d), want %d unpruned", q, opt-1, walk, how, opt)
		}
		for floor := opt; floor < ub; floor++ {
			walk, how := s.WalkAbove(gridMetric(12), home, sites, floor)
			if how != Pruned || walk > floor || walk < opt {
				t.Fatalf("q=%d floor %d: %d (outcome %d), want a walk in [%d, %d] as Pruned", q, floor, walk, how, opt, floor)
			}
			tested++
		}
	}
	if tested == 0 {
		t.Fatal("no open walk had a local-search miss; the test checks nothing")
	}
	t.Logf("%d floors checked", tested)
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

// TestWalkAboveWarmZeroAllocs: the certificate's and the branch and
// bound's scratch lives on the Solver, so once warm, WalkAbove allocates
// nothing, both on 12×12 grid walks the certificate closes and on ones
// the branch and bound closes. TestBranchBudgetFallsBackToHeldKarp
// checks the Held–Karp fallback.
func TestWalkAboveWarmZeroAllocs(t *testing.T) {
	var s Solver
	for _, tc := range []struct {
		seed int64
		q    int
		want Outcome
	}{{3, ExactLimit, Certified}, {4, 12, Branched}, {5, ExactLimit, Branched}} {
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

var walkSink int64

// BenchmarkWalkAboveOpen times WalkAbove on 12×12 grid walks of 15 and 16
// sites that the certificate leaves open, so each runs the certificate
// and then the branch and bound (or, past its budget, Held–Karp), on a
// warm Solver. One op is one walk; the loop cycles through 16 of them.
func BenchmarkWalkAboveOpen(b *testing.B) {
	walks := openWalks(b, 1, 15, ExactLimit, 16)
	var s Solver
	for _, nodes := range walks {
		s.WalkAbove(gridMetric(12), nodes[0], nodes[1:], -1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes := walks[i%len(walks)]
		walkSink, _ = s.WalkAbove(gridMetric(12), nodes[0], nodes[1:], -1)
	}
}
