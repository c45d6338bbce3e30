package lower

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
)

func TestComputeHandExample(t *testing.T) {
	// Line 0-1-2-3-4. Object 0 used by txns at nodes 0 and 4, home 0:
	// walk = 4. Object 1 used by three txns at 1,2,3, home 2: walk = 2
	// but ℓ = 3.
	g := graph.New(5)
	for i := 0; i < 4; i++ {
		g.AddUnitEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	in := tm.NewInstance(g, nil, 2, []tm.Txn{
		{Node: 0, Objects: []tm.ObjectID{0}},
		{Node: 4, Objects: []tm.ObjectID{0}},
		{Node: 1, Objects: []tm.ObjectID{1}},
		{Node: 2, Objects: []tm.ObjectID{1}},
		{Node: 3, Objects: []tm.ObjectID{1}},
	}, []graph.NodeID{0, 2})
	b := Compute(in)
	if b.MaxUse != 3 {
		t.Fatalf("MaxUse = %d, want 3", b.MaxUse)
	}
	if b.MaxWalkLB != 4 || b.MaxWalkUB != 4 {
		t.Fatalf("MaxWalk = [%d,%d], want exact 4", b.MaxWalkLB, b.MaxWalkUB)
	}
	if b.Value != 4 {
		t.Fatalf("Value = %d, want 4", b.Value)
	}
	if len(b.PerObject) != 2 {
		t.Fatalf("PerObject has %d entries", len(b.PerObject))
	}
	if b.PerObject[1].LB() != 3 {
		t.Fatalf("object 1 LB = %d, want 3 (ℓ dominates its short walk)", b.PerObject[1].LB())
	}
}

func TestComputeEmptyRequests(t *testing.T) {
	g := graph.New(2)
	g.AddUnitEdge(0, 1)
	in := tm.NewInstance(g, nil, 1, []tm.Txn{{Node: 0, Objects: nil}}, []graph.NodeID{1})
	b := Compute(in)
	if b.Value != 1 {
		t.Fatalf("Value = %d, want 1 (one transaction exists)", b.Value)
	}
	if len(b.PerObject) != 0 {
		t.Fatal("unrequested object got a detail entry")
	}
}

// TestBoundNeverExceedsFeasibleScheduleProperty is the soundness property
// the whole harness rests on: the certified lower bound can never exceed
// the makespan of an actual feasible schedule.
func TestBoundNeverExceedsFeasibleScheduleProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(20)
		w := 2 + r.Intn(6)
		k := 1 + r.Intn(minInt(w, 3))
		g := graph.New(n)
		perm := r.Perm(n)
		for i := 1; i < n; i++ {
			g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[r.Intn(i)]), 1+r.Int63n(4))
		}
		in := tm.UniformK(w, k).Generate(r, g, nil, g.Nodes(), tm.PlaceAtRandomUser)
		s := listSchedule(r, in)
		if s.Validate(in) != nil {
			return false
		}
		return Compute(in).Value <= s.Makespan()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterSigmaAndLB(t *testing.T) {
	c := topology.NewCluster(3, 2, 5)
	g := c.Graph()
	// Object 0 used in clusters 0 and 2; object 1 only in cluster 1.
	in := tm.NewInstance(g, graph.FuncMetric(c.Dist), 2, []tm.Txn{
		{Node: 0, Objects: []tm.ObjectID{0}},
		{Node: 4, Objects: []tm.ObjectID{0}},
		{Node: 2, Objects: []tm.ObjectID{1}},
		{Node: 3, Objects: []tm.ObjectID{1}},
	}, []graph.NodeID{0, 2})
	if got := ClusterSigma(in, c); got != 2 {
		t.Fatalf("ClusterSigma = %d, want 2", got)
	}
	if got := ClusterLB(in, c); got != 5 {
		t.Fatalf("ClusterLB = %d, want (σ−1)γ = 5", got)
	}
}

func TestClusterLBSingleCluster(t *testing.T) {
	c := topology.NewCluster(2, 2, 4)
	in := tm.NewInstance(c.Graph(), graph.FuncMetric(c.Dist), 1, []tm.Txn{
		{Node: 0, Objects: []tm.ObjectID{0}},
		{Node: 1, Objects: []tm.ObjectID{0}},
	}, []graph.NodeID{0})
	if got := ClusterLB(in, c); got != 1 {
		t.Fatalf("single-cluster ClusterLB = %d, want 1", got)
	}
}

func TestStarSigma(t *testing.T) {
	s := topology.NewStar(3, 4)
	// Object 0 used at position 2 of rays 0 and 2 (segment 2 covers
	// positions 2–3); object 1 used only on ray 1.
	in := tm.NewInstance(s.Graph(), graph.FuncMetric(s.Dist), 2, []tm.Txn{
		{Node: s.ID(0, 2), Objects: []tm.ObjectID{0}},
		{Node: s.ID(2, 3), Objects: []tm.ObjectID{0}},
		{Node: s.ID(1, 2), Objects: []tm.ObjectID{1}},
	}, []graph.NodeID{s.ID(0, 2), s.ID(1, 2)})
	if got := StarSigma(in, s, 2); got != 2 {
		t.Fatalf("StarSigma(seg 2) = %d, want 2", got)
	}
	if got := StarSigma(in, s, 1); got != 0 {
		t.Fatalf("StarSigma(seg 1) = %d, want 0 (nobody in positions [1,1])", got)
	}
}

// listSchedule mirrors the baseline list scheduler for property input.
func listSchedule(r *rand.Rand, in *tm.Instance) *schedule.Schedule {
	c := schedule.NewChain(in.Metric, in.Home, in.G.NumNodes())
	s := schedule.New(in.NumTxns())
	for _, i := range r.Perm(in.NumTxns()) {
		txn := &in.Txns[i]
		s.Times[i] = c.Earliest(txn.Node, txn.Objects)
		c.Commit(txn.Node, txn.Objects, s.Times[i])
	}
	return s
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
