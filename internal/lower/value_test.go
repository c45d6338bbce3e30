package lower

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dtmsched/internal/core"
	"dtmsched/internal/exact"
	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/tsp"
)

// scalars is the part of a Bound on which the value and witness paths
// must agree.
type scalars struct {
	Value                        int64
	MaxUse                       int
	MaxWalkLB                    int64
	ExactObjects, BoundedObjects int
}

func scalarsOf(b Bound) scalars {
	return scalars{b.Value, b.MaxUse, b.MaxWalkLB, b.ExactObjects, b.BoundedObjects}
}

// metricTopology is a graph with a closed-form metric over it.
type metricTopology interface {
	Graph() *graph.Graph
	Dist(u, v graph.NodeID) int64
}

// randomTree returns a random tree on n nodes with edge weights in [1, maxW].
func randomTree(r *rand.Rand, n int, maxW int64) *graph.Graph {
	g := graph.New(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[r.Intn(i)]), 1+r.Int63n(maxW))
	}
	return g
}

// TestTreeWalkMatchesHeldKarp pins the tree closed form to Held–Karp on
// every tree family, for every walk-set size up to tsp.ExactLimit.
func TestTreeWalkMatchesHeldKarp(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	type tree struct {
		name string
		g    *graph.Graph
		m    graph.Metric
	}
	var trees []tree
	for _, tp := range []struct {
		name string
		t    metricTopology
	}{
		{"line", topology.NewLine(30)},
		{"star", topology.NewStar(4, 6)},
		{"btree", topology.NewBTree(2, 4)},
		{"lbtree", topology.NewLBTree(4)},
		{"fogcloud", topology.NewFogCloud([]int{3, 5}, []int64{7, 2})},
	} {
		trees = append(trees, tree{tp.name, tp.t.Graph(), graph.FuncMetric(tp.t.Dist)})
	}
	for i := 0; i < 3; i++ {
		g := randomTree(r, 20+r.Intn(15), 9)
		trees = append(trees, tree{"random", g, g})
	}
	var s tsp.Solver
	for _, tr := range trees {
		rank := new(scratch).treeRank(tr.g)
		if rank == nil {
			t.Fatalf("%s: not recognised as a tree", tr.name)
		}
		n := tr.g.NumNodes()
		for q := 0; q <= tsp.ExactLimit && q < n; q++ {
			for trial := 0; trial < 2; trial++ {
				perm := r.Perm(n)
				home := graph.NodeID(perm[0])
				terms := make([]graph.NodeID, q+1)
				for i := range terms {
					terms[i] = graph.NodeID(perm[i])
				}
				want := s.Walk(tr.m, home, terms[1:])
				if got := treeWalk(tr.m, rank, terms); got != want.LB || !want.Exact {
					t.Fatalf("%s q=%d: closed form %d, Held–Karp %+v", tr.name, q, got, want)
				}
			}
		}
	}
}

// TestTreeRankRejectsNonTrees: cycles, extra edges and disconnected
// graphs with n − 1 edges are not trees.
func TestTreeRankRejectsNonTrees(t *testing.T) {
	cycle := graph.New(4) // a triangle plus an isolated node: 3 edges, 4 nodes
	cycle.AddUnitEdge(0, 1)
	cycle.AddUnitEdge(1, 2)
	cycle.AddUnitEdge(2, 0)
	for name, g := range map[string]*graph.Graph{
		"grid":         topology.NewSquareGrid(4).Graph(),
		"clique":       topology.NewClique(5).Graph(),
		"disconnected": cycle,
	} {
		if new(scratch).treeRank(g) != nil {
			t.Errorf("%s: accepted as a tree", name)
		}
	}
}

// certifyCells mirrors the six cell shapes of the offline-certify
// benchmark workload: topology, object count w and objects per
// transaction k.
var certifyCells = []struct {
	name string
	mk   func() metricTopology
	w, k int
}{
	{"clique64", func() metricTopology { return topology.NewClique(64) }, 8, 2},
	{"grid12", func() metricTopology { return topology.NewSquareGrid(12) }, 20, 2},
	{"line64", func() metricTopology { return topology.NewLine(64) }, 8, 2},
	{"star4x8", func() metricTopology { return topology.NewStar(4, 8) }, 4, 2},
	{"cluster4x8", func() metricTopology { return topology.NewCluster(4, 8, 16) }, 4, 2},
	{"fogcloud4x8", func() metricTopology { return topology.NewFogCloud([]int{4, 8}, []int64{8, 1}) }, 5, 2},
}

// TestValueMatchesWitness: the value path must report the witness path's
// scalars (all but the tours and the walk upper ends) on the zoo and on
// 20 seeds of every offline-certify cell shape, and must account for
// every exact object. Every cell must reach the MST-bounded case
// (|S| > tsp.ExactLimit) on some seed, so that case stays compared.
func TestValueMatchesWitness(t *testing.T) {
	check := func(name string, in *tm.Instance) Bound {
		t.Helper()
		value, witness := Value(in), Compute(in)
		if got, want := scalarsOf(value), scalarsOf(witness); got != want {
			t.Fatalf("%s: value path %+v, witness path %+v", name, got, want)
		}
		if value.ClosedFormObjects+value.PrunedObjects+value.CertifiedObjects+value.BranchedObjects > value.ExactObjects {
			t.Fatalf("%s: %d closed-form + %d pruned + %d certified + %d branched > %d exact objects",
				name, value.ClosedFormObjects, value.PrunedObjects, value.CertifiedObjects, value.BranchedObjects, value.ExactObjects)
		}
		return value
	}
	for i, in := range zooInstances(t) {
		check(fmt.Sprintf("zoo%d", i), in)
	}
	for _, c := range certifyCells {
		tp := c.mk()
		g := tp.Graph()
		m := graph.FuncMetric(tp.Dist)
		bounded := 0
		for seed := int64(1); seed <= 20; seed++ {
			in := tm.UniformK(c.w, c.k).Generate(rand.New(rand.NewSource(seed)), g, m, g.Nodes(), tm.PlaceAtRandomUser)
			bounded += check(c.name, in).BoundedObjects
		}
		if bounded == 0 {
			t.Errorf("%s: no object above tsp.ExactLimit over 20 seeds", c.name)
		}
	}
}

// TestValuePathLayers: on a tree every small walk is closed-form, and on
// a clique (a uniform metric) every bracket closes, so neither runs
// Held–Karp.
func TestValuePathLayers(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, tp := range []metricTopology{topology.NewLine(64), topology.NewClique(64)} {
		g := tp.Graph()
		in := tm.UniformK(8, 2).Generate(r, g, graph.FuncMetric(tp.Dist), g.Nodes(), tm.PlaceAtRandomUser)
		b := Value(in)
		if b.ClosedFormObjects != b.ExactObjects || b.ExactObjects == 0 {
			t.Errorf("%s: %d of %d exact objects closed-form", g.Name(), b.ClosedFormObjects, b.ExactObjects)
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestValueRecyclesSolver: once warm, the value path reuses a
// pooled solver's Held–Karp table instead of allocating one per call. The
// instance's one object has 15 walk sites on a random weighted graph
// (seed 1576: 27 nodes, 36 edges), and neither its bracket nor its
// certificate closes, and its branch and bound runs out of nodes, so
// every call solves it with a 3.75 MiB table. Such walks are rare: on a
// 12×12 grid, none of the random 15-site sets drawn from seeds 1–19999
// reaches Held–Karp.
func TestValueRecyclesSolver(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	r := rand.New(rand.NewSource(1576))
	n := 24 + r.Intn(24)
	g := randomTree(r, n, 9)
	for e := r.Intn(2 * n); e > 0; e-- {
		if u, v := r.Intn(n), r.Intn(n); u != v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1+r.Int63n(9))
		}
	}
	perm := r.Perm(n)
	txns := make([]tm.Txn, 16)
	for i := range txns {
		txns[i] = tm.Txn{Node: graph.NodeID(perm[i]), Objects: []tm.ObjectID{0}}
	}
	in := tm.NewInstance(g, g, 1, txns, []graph.NodeID{graph.NodeID(perm[0])})
	b := Value(in)
	if solved := b.ExactObjects - b.ClosedFormObjects - b.PrunedObjects - b.CertifiedObjects - b.BranchedObjects; solved != 1 {
		t.Fatalf("%d objects went through Held–Karp, want 1 (%+v)", solved, b)
	}
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		Value(in)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 256<<10 {
		t.Fatalf("Value allocated %d B per warm call, want < 256 KiB", per)
	}
}

// TestValueWarmZeroAllocs: the value path's per-call slices and tree
// ranks live on the pooled scratch, so once warm, Value allocates
// nothing on every offline-certify cell shape: grid12 and cluster4x8
// send candidates through the certificate, and line64, star4x8 and
// fogcloud4x8 take the tree closed form.
func TestValueWarmZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	for _, c := range certifyCells {
		tp := c.mk()
		g := tp.Graph()
		in := tm.UniformK(c.w, c.k).Generate(rand.New(rand.NewSource(1)), g, graph.FuncMetric(tp.Dist), g.Nodes(), tm.PlaceAtRandomUser)
		Value(in)
		if allocs := testing.AllocsPerRun(5, func() { Value(in) }); allocs != 0 {
			t.Errorf("%s: %v allocs per warm Value, want 0", c.name, allocs)
		}
	}
}

// TestValueSkipsWalkUpperEnd: an object with more than tsp.ExactLimit
// walk sites costs the value path its MST alone, q(q+1)/2 metric queries
// over home and q sites, and no upper-end heuristic. The instance has 21
// transactions on distinct nodes of a 12×12 grid requesting one object
// homed at one of them, so q = 20.
func TestValueSkipsWalkUpperEnd(t *testing.T) {
	tp := topology.NewSquareGrid(12)
	g := tp.Graph()
	calls := 0
	m := graph.FuncMetric(func(u, v graph.NodeID) int64 {
		calls++
		return tp.Dist(u, v)
	})
	perm := rand.New(rand.NewSource(1)).Perm(g.NumNodes())
	txns := make([]tm.Txn, 21)
	for i := range txns {
		txns[i] = tm.Txn{Node: graph.NodeID(perm[i]), Objects: []tm.ObjectID{0}}
	}
	in := tm.NewInstance(g, m, 1, txns, []graph.NodeID{graph.NodeID(perm[0])})
	calls = 0
	b := Value(in)
	if b.BoundedObjects != 1 {
		t.Fatalf("%d bounded objects, want 1 (%+v)", b.BoundedObjects, b)
	}
	const q = 20
	if calls > q*(q+1)/2 {
		t.Fatalf("Value made %d metric queries, want ≤ %d (the MST over home and %d sites)", calls, q*(q+1)/2, q)
	}
}

// FuzzBoundSound checks the certified bound against ground truth on tiny
// instances over random trees and random connected weighted graphs: the
// value path must equal the witness path's scalars, so must a leg that
// forces every walk through the certificate (and the branch and bound
// behind it), and the bound must not exceed the exact optimum, which must
// not exceed the greedy makespan.
func FuzzBoundSound(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(shape/2)%7
		g := randomTree(r, n, 5)
		if shape%2 == 1 {
			for e := 1 + r.Intn(n); e > 0; e-- {
				if u, v := r.Intn(n), r.Intn(n); u != v {
					g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1+r.Int63n(5))
				}
			}
		}
		w := 1 + r.Intn(4)
		in := tm.UniformK(w, 1+r.Intn(min(w, 2))).Generate(r, g, nil, g.Nodes(), tm.PlaceAtRandomUser)

		value, witness := Value(in), Compute(in)
		if got, want := scalarsOf(value), scalarsOf(witness); got != want {
			t.Fatalf("value path %+v, witness path %+v", got, want)
		}
		// The certificate leg: every walk through tsp.Solver.WalkAbove
		// with no floor to prune against, so each one is certified,
		// branched or solved, must be the witness path's walk, and the
		// bound built from them must be the witness path's.
		var s tsp.Solver
		certBound := int64(witness.MaxUse)
		for _, d := range witness.PerObject {
			sites := objectSites(in, in.Users(d.Object), nil)
			walk, how := s.WalkAbove(in.Metric, in.Home[d.Object], sites, -1)
			if how == tsp.Pruned || !d.Walk.Exact || walk != d.Walk.LB {
				t.Fatalf("object %d: certificate leg %d (outcome %d), witness walk %+v", d.Object, walk, how, d.Walk)
			}
			certBound = max(certBound, walk)
		}
		if certBound < 1 && in.NumTxns() > 0 {
			certBound = 1
		}
		if certBound != witness.Value {
			t.Fatalf("certificate leg bound %d, witness path %d", certBound, witness.Value)
		}
		greedy, err := (&core.Greedy{}).Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := exact.Optimal(in, exact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if value.Value > opt.Makespan || opt.Makespan > greedy.Makespan {
			t.Fatalf("bound %d, exact optimum %d, greedy %d: want bound ≤ optimum ≤ greedy",
				value.Value, opt.Makespan, greedy.Makespan)
		}
	})
}

var valueSink Bound

// BenchmarkValueGrid12 times the value path on one offline-certify-sized
// grid12 instance (20 objects, two per transaction, seed 1) on a warm
// solver pool: the instance whose walks the certificate mostly settles.
func BenchmarkValueGrid12(b *testing.B) {
	c := certifyCells[1]
	tp := c.mk()
	g := tp.Graph()
	in := tm.UniformK(c.w, c.k).Generate(rand.New(rand.NewSource(1)), g, graph.FuncMetric(tp.Dist), g.Nodes(), tm.PlaceAtRandomUser)
	valueSink = Value(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		valueSink = Value(in)
	}
}
