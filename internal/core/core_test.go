package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dtmsched/internal/depgraph"
	"dtmsched/internal/graph"
	"dtmsched/internal/sim"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/tsp"
	"dtmsched/internal/xrand"
)

// mustSchedule runs the scheduler and asserts both the algebraic checker
// and the synchronous simulator accept the result.
func mustSchedule(t *testing.T, in *tm.Instance, s Scheduler) *Result {
	t.Helper()
	res, err := s.Schedule(in)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatalf("%s: infeasible: %v", s.Name(), err)
	}
	if _, err := sim.Run(in, res.Schedule, sim.Options{}); err != nil {
		t.Fatalf("%s: simulator rejected: %v", s.Name(), err)
	}
	if res.Makespan != res.Schedule.Makespan() {
		t.Fatalf("%s: cached makespan %d != %d", s.Name(), res.Makespan, res.Schedule.Makespan())
	}
	return res
}

func uniformOn(t *testing.T, topo topology.Topology, w, k int, seed int64) *tm.Instance {
	t.Helper()
	g := topo.Graph()
	in := tm.UniformK(w, k).Generate(xrand.New(seed), g, graph.FuncMetric(topo.Dist), g.Nodes(), tm.PlaceAtRandomUser)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestGreedyOnCliqueWithinGammaPlusOne(t *testing.T) {
	topo := topology.NewClique(24)
	in := uniformOn(t, topo, 8, 2, 1)
	res := mustSchedule(t, in, &Greedy{})
	h := depgraph.New(in, nil, in.Index()).Summarize()
	// All objects are homed at requesters, and on a clique the initial
	// shift is ≤ 1, so makespan ≤ Γ + 2.
	if res.Makespan > h.WeightedDegree()+2 {
		t.Fatalf("greedy makespan %d exceeds Γ+2 = %d", res.Makespan, h.WeightedDegree()+2)
	}
	if res.Stats["colors"] < 1 || res.Stats["gamma"] != h.WeightedDegree() {
		t.Fatalf("stats wrong: %v", res.Stats)
	}
}

func TestGreedyDeterministicWithoutRng(t *testing.T) {
	topo := topology.NewClique(16)
	in := uniformOn(t, topo, 8, 2, 2)
	r1 := mustSchedule(t, in, &Greedy{})
	r2 := mustSchedule(t, in, &Greedy{})
	for i := range r1.Schedule.Times {
		if r1.Schedule.Times[i] != r2.Schedule.Times[i] {
			t.Fatal("greedy not deterministic")
		}
	}
}

// TestGreedyRngImpliesShuffle pins the backward-compatibility contract on
// Greedy.Rng: a non-nil Rng with the zero-value Order (OrderNode) shuffles
// exactly as if Order were OrderRandom. Early callers requested
// randomization by setting only Rng, so the implicit behavior must stay.
func TestGreedyRngImpliesShuffle(t *testing.T) {
	topo := topology.NewClique(20)
	in := uniformOn(t, topo, 8, 2, 21)
	implicit := mustSchedule(t, in, &Greedy{Rng: rand.New(rand.NewSource(77))})
	explicit := mustSchedule(t, in, &Greedy{Order: OrderRandom, Rng: rand.New(rand.NewSource(77))})
	for i := range implicit.Schedule.Times {
		if implicit.Schedule.Times[i] != explicit.Schedule.Times[i] {
			t.Fatalf("txn %d: implicit-shuffle time %d != OrderRandom time %d",
				i, implicit.Schedule.Times[i], explicit.Schedule.Times[i])
		}
	}
	// And OrderRandom without an Rng must still be rejected.
	if _, err := (&Greedy{Order: OrderRandom}).Schedule(in); err == nil {
		t.Fatal("OrderRandom accepted nil Rng")
	}
}

func TestGreedyShuffledStillFeasible(t *testing.T) {
	topo := topology.NewHypercube(4)
	in := uniformOn(t, topo, 6, 2, 3)
	mustSchedule(t, in, &Greedy{Rng: rand.New(rand.NewSource(9))})
}

func TestGreedySingleTransaction(t *testing.T) {
	g := graph.New(2)
	g.AddUnitEdge(0, 1)
	in := tm.NewInstance(g, nil, 1, []tm.Txn{{Node: 1, Objects: []tm.ObjectID{0}}}, []graph.NodeID{0})
	res := mustSchedule(t, in, &Greedy{})
	// Object must travel distance 1 before the transaction runs.
	if res.Makespan != 1 {
		t.Fatalf("makespan = %d, want 1 (object one hop away, t ≥ dist)", res.Makespan)
	}
}

func TestGreedyConflictFreeRunsInOneStep(t *testing.T) {
	topo := topology.NewClique(8)
	g := topo.Graph()
	txns := make([]tm.Txn, 8)
	homes := make([]graph.NodeID, 8)
	for i := range txns {
		txns[i] = tm.Txn{Node: graph.NodeID(i), Objects: []tm.ObjectID{tm.ObjectID(i)}}
		homes[i] = graph.NodeID(i)
	}
	in := tm.NewInstance(g, graph.FuncMetric(topo.Dist), 8, txns, homes)
	res := mustSchedule(t, in, &Greedy{})
	if res.Makespan != 1 {
		t.Fatalf("conflict-free makespan = %d, want 1", res.Makespan)
	}
}

func TestLineWithinFourEll(t *testing.T) {
	topo := topology.NewLine(64)
	in := uniformOn(t, topo, 16, 2, 4)
	res := mustSchedule(t, in, &Line{Topo: topo})
	ell := res.Stats["ell"]
	if res.Makespan > 4*ell-2 {
		t.Fatalf("line makespan %d exceeds 4ℓ−2 = %d", res.Makespan, 4*ell-2)
	}
}

func TestLineSingleNode(t *testing.T) {
	topo := topology.NewLine(1)
	g := topo.Graph()
	in := tm.NewInstance(g, graph.FuncMetric(topo.Dist), 1,
		[]tm.Txn{{Node: 0, Objects: []tm.ObjectID{0}}}, []graph.NodeID{0})
	res := mustSchedule(t, in, &Line{Topo: topo})
	if res.Makespan != 1 {
		t.Fatalf("single-node line makespan = %d", res.Makespan)
	}
}

func TestLineErrors(t *testing.T) {
	topo := topology.NewLine(4)
	other := topology.NewLine(4)
	in := uniformOn(t, other, 2, 1, 5)
	if _, err := (&Line{Topo: topo}).Schedule(in); err == nil {
		t.Fatal("accepted instance from a different graph")
	}
	if _, err := (&Line{}).Schedule(in); err == nil {
		t.Fatal("accepted nil topology")
	}
}

func TestLinePropertyRandomWorkloads(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(120)
		w := 2 + r.Intn(16)
		k := 1 + r.Intn(minIntT(w, 3))
		topo := topology.NewLine(n)
		in := tm.UniformK(w, k).Generate(r, topo.Graph(), graph.FuncMetric(topo.Dist), topo.Graph().Nodes(), tm.PlaceAtRandomUser)
		res, err := (&Line{Topo: topo}).Schedule(in)
		if err != nil {
			return false
		}
		ell := res.Stats["ell"]
		return res.Schedule.Validate(in) == nil && res.Makespan <= 4*ell-2+ell // δ slack for random homes
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGridSideFormula(t *testing.T) {
	topo := topology.NewSquareGrid(32)
	in := uniformOn(t, topo, 128, 2, 6)
	side := (&Grid{Topo: topo}).Side(in)
	if side < 1 || side > 32 {
		t.Fatalf("Side = %d out of range", side)
	}
	forced := &Grid{Topo: topo, SideOverride: 5}
	if forced.Side(in) != 5 {
		t.Fatal("SideOverride ignored")
	}
}

func TestGridSchedulesAllTiles(t *testing.T) {
	topo := topology.NewSquareGrid(12)
	in := uniformOn(t, topo, 24, 2, 7)
	res := mustSchedule(t, in, &Grid{Topo: topo, SideOverride: 4})
	if res.Stats["tiles"] != 9 {
		t.Fatalf("tiles = %d, want 9", res.Stats["tiles"])
	}
}

func TestGridErrors(t *testing.T) {
	topo := topology.NewSquareGrid(4)
	other := topology.NewSquareGrid(4)
	in := uniformOn(t, other, 4, 1, 8)
	if _, err := (&Grid{Topo: topo}).Schedule(in); err == nil {
		t.Fatal("accepted instance from a different grid")
	}
	if _, err := (&Grid{}).Schedule(in); err == nil {
		t.Fatal("accepted nil topology")
	}
}

func TestGridPropertyRandomSizes(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		side := 3 + r.Intn(10)
		w := 2 + r.Intn(12)
		k := 1 + r.Intn(minIntT(w, 3))
		topo := topology.NewSquareGrid(side)
		in := tm.UniformK(w, k).Generate(r, topo.Graph(), graph.FuncMetric(topo.Dist), topo.Graph().Nodes(), tm.PlaceAtRandomUser)
		res, err := (&Grid{Topo: topo}).Schedule(in)
		if err != nil {
			return false
		}
		if res.Schedule.Validate(in) != nil {
			return false
		}
		_, err = sim.Run(in, res.Schedule, sim.Options{})
		return err == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterApproachesAndAuto(t *testing.T) {
	topo := topology.NewCluster(4, 6, 12)
	in := uniformOn(t, topo, 8, 2, 9)
	r1 := mustSchedule(t, in, &Cluster{Topo: topo, Approach: ClusterApproach1})
	r2 := mustSchedule(t, in, &Cluster{Topo: topo, Approach: ClusterApproach2, Rng: xrand.New(1)})
	ra := mustSchedule(t, in, &Cluster{Topo: topo, Rng: xrand.New(1)})
	if ra.Makespan > r1.Makespan && ra.Makespan > r2.Makespan {
		t.Fatalf("auto makespan %d worse than both approaches (%d, %d)", ra.Makespan, r1.Makespan, r2.Makespan)
	}
	if r2.Stats["rounds"] < 1 || r2.Stats["psi"] < 1 {
		t.Fatalf("approach-2 stats missing: %v", r2.Stats)
	}
	if r1.Stats["sigma"] < 1 {
		t.Fatalf("approach-1 sigma missing: %v", r1.Stats)
	}
}

func TestClusterErrors(t *testing.T) {
	topo := topology.NewCluster(2, 3, 4)
	in := uniformOn(t, topo, 4, 1, 10)
	if _, err := (&Cluster{Topo: topo, Approach: ClusterApproach2}).Schedule(in); err == nil {
		t.Fatal("approach 2 accepted nil Rng")
	}
	if _, err := (&Cluster{}).Schedule(in); err == nil {
		t.Fatal("accepted nil topology")
	}
	other := topology.NewCluster(2, 3, 4)
	inOther := uniformOn(t, other, 4, 1, 10)
	if _, err := (&Cluster{Topo: topo, Rng: xrand.New(1)}).Schedule(inOther); err == nil {
		t.Fatal("accepted instance from a different cluster graph")
	}
}

func TestClusterNames(t *testing.T) {
	topo := topology.NewCluster(2, 2, 2)
	for ap, want := range map[ClusterApproach]string{
		ClusterAuto:      "cluster/auto",
		ClusterApproach1: "cluster/approach1",
		ClusterApproach2: "cluster/approach2",
	} {
		if got := (&Cluster{Topo: topo, Approach: ap}).Name(); got != want {
			t.Fatalf("Name(%v) = %q", ap, got)
		}
	}
}

func TestClusterPropertyRandom(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := 2 + r.Intn(5)
		beta := 2 + r.Intn(6)
		gamma := int64(beta + r.Intn(2*beta))
		w := 2 + r.Intn(10)
		k := 1 + r.Intn(minIntT(w, 3))
		topo := topology.NewCluster(alpha, beta, gamma)
		in := tm.UniformK(w, k).Generate(r, topo.Graph(), graph.FuncMetric(topo.Dist), topo.Graph().Nodes(), tm.PlaceAtRandomUser)
		cs := &Cluster{Topo: topo, Rng: rand.New(rand.NewSource(seed + 1))}
		res, err := cs.Schedule(in)
		if err != nil || res.Schedule.Validate(in) != nil {
			return false
		}
		_, err = sim.Run(in, res.Schedule, sim.Options{})
		return err == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStarApproachesAndAuto(t *testing.T) {
	topo := topology.NewStar(4, 8)
	in := uniformOn(t, topo, 8, 2, 11)
	r1 := mustSchedule(t, in, &Star{Topo: topo, Approach: ClusterApproach1})
	r2 := mustSchedule(t, in, &Star{Topo: topo, Approach: ClusterApproach2, Rng: xrand.New(2)})
	ra := mustSchedule(t, in, &Star{Topo: topo, Rng: xrand.New(2)})
	if ra.Makespan > r1.Makespan && ra.Makespan > r2.Makespan {
		t.Fatal("star auto worse than both approaches")
	}
	if r1.Stats["eta"] != int64(topo.NumSegments()) {
		t.Fatalf("eta stat = %d, want %d", r1.Stats["eta"], topo.NumSegments())
	}
	_ = r2
}

func TestStarErrors(t *testing.T) {
	topo := topology.NewStar(2, 3)
	in := uniformOn(t, topo, 4, 1, 12)
	if _, err := (&Star{Topo: topo, Approach: ClusterApproach2}).Schedule(in); err == nil {
		t.Fatal("star approach 2 accepted nil Rng")
	}
	if _, err := (&Star{}).Schedule(in); err == nil {
		t.Fatal("accepted nil topology")
	}
}

func TestStarCenterExecutesFirst(t *testing.T) {
	topo := topology.NewStar(3, 4)
	in := uniformOn(t, topo, 4, 2, 13)
	res := mustSchedule(t, in, &Star{Topo: topo, Approach: ClusterApproach1})
	var centerTime int64
	for i := range in.Txns {
		if in.Txns[i].Node == topo.Center() {
			centerTime = res.Schedule.Times[i]
		}
	}
	if centerTime == 0 {
		t.Skip("no transaction at center")
	}
	for i := range in.Txns {
		if in.Txns[i].Node != topo.Center() && res.Schedule.Times[i] < centerTime {
			// Center is scheduled by appendOne before any period, so no
			// transaction sharing none of its objects may still precede
			// it? They may not: composer serializes batches after it.
			t.Fatalf("transaction %d runs at %d before center's %d", i, res.Schedule.Times[i], centerTime)
		}
	}
}

func TestStarPropertyRandom(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := 2 + r.Intn(5)
		beta := 2 + r.Intn(12)
		w := 2 + r.Intn(10)
		k := 1 + r.Intn(minIntT(w, 3))
		topo := topology.NewStar(alpha, beta)
		in := tm.UniformK(w, k).Generate(r, topo.Graph(), graph.FuncMetric(topo.Dist), topo.Graph().Nodes(), tm.PlaceAtRandomUser)
		st := &Star{Topo: topo, Rng: rand.New(rand.NewSource(seed + 1))}
		res, err := st.Schedule(in)
		if err != nil || res.Schedule.Validate(in) != nil {
			return false
		}
		_, err = sim.Run(in, res.Schedule, sim.Options{})
		return err == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func minIntT(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestLineMaxWalkMatchesTSPExact cross-checks the Line scheduler's
// closed-form walk computation against the exact Held-Karp solver.
func TestLineMaxWalkMatchesTSPExact(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		topo := topology.NewLine(24)
		in := uniformOn(t, topo, 6, 2, 100+seed)
		l := &Line{Topo: topo}
		res, err := l.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for o := 0; o < in.NumObjects; o++ {
			users := in.Users(tm.ObjectID(o))
			if len(users) == 0 {
				continue
			}
			sites := make([]graph.NodeID, len(users))
			for i, id := range users {
				sites[i] = in.Txns[id].Node
			}
			b := new(tsp.Solver).Walk(graph.FuncMetric(topo.Dist), in.Home[o], sites)
			if !b.Exact {
				t.Skip("instance too large for exact walks")
			}
			if b.LB > want {
				want = b.LB
			}
		}
		if got := res.Stats["maxwalk"]; got != want {
			t.Fatalf("seed %d: line max walk = %d, exact = %d", seed, got, want)
		}
		if ell := res.Stats["ell"]; ell != want && ell != int64(topo.N()) {
			t.Fatalf("seed %d: ℓ = %d is neither the walk %d nor the n-cap", seed, ell, want)
		}
	}
}
