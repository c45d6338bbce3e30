package baseline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dtmsched/internal/core"
	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/sim"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

func randomInstance(r *rand.Rand) *tm.Instance {
	n := 3 + r.Intn(24)
	w := 2 + r.Intn(8)
	k := 1 + r.Intn(minInt(w, 3))
	g := graph.New(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[r.Intn(i)]), 1+r.Int63n(4))
	}
	return tm.UniformK(w, k).Generate(r, g, nil, g.Nodes(), tm.PlaceAtRandomUser)
}

func TestAllBaselinesFeasibleProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r)
		seq, err := Sequential{}.Schedule(in)
		if err != nil {
			return false
		}
		lst, err := List{}.Schedule(in)
		if err != nil {
			return false
		}
		rnd, err := Random{Rng: rand.New(rand.NewSource(seed + 1))}.Schedule(in)
		if err != nil {
			return false
		}
		for _, res := range []*core.Result{seq, lst, rnd} {
			if _, err := sim.Run(in, res.Schedule, sim.Options{}); err != nil {
				return false
			}
		}
		// List parallelism never loses to strict serialization (same
		// priority order, minus the forced gaps).
		return lst.Makespan <= seq.Makespan
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialStrictlyIncreasing(t *testing.T) {
	r := xrand.New(4)
	in := randomInstance(r)
	res, err := Sequential{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Schedule.Times); i++ {
		if res.Schedule.Times[i] <= res.Schedule.Times[i-1] {
			t.Fatalf("sequential times not increasing: %v", res.Schedule.Times)
		}
	}
}

func TestListCustomOrder(t *testing.T) {
	r := xrand.New(5)
	in := randomInstance(r)
	order := make([]tm.TxnID, in.NumTxns())
	for i := range order {
		order[i] = tm.TxnID(in.NumTxns() - 1 - i)
	}
	res, err := List{Order: order}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestListRejectsBadOrder(t *testing.T) {
	r := xrand.New(6)
	in := randomInstance(r)
	if _, err := (List{Order: []tm.TxnID{0}}).Schedule(in); err == nil {
		t.Fatal("accepted short order")
	}
}

func TestRandomNeedsRng(t *testing.T) {
	r := xrand.New(7)
	in := randomInstance(r)
	if _, err := (Random{}).Schedule(in); err == nil {
		t.Fatal("accepted nil Rng")
	}
}

func TestNames(t *testing.T) {
	if (Sequential{}).Name() != "baseline/sequential" ||
		(List{}).Name() != "baseline/list" ||
		(Random{}).Name() != "baseline/random" {
		t.Fatal("names wrong")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestNearestOrderVisitsAll(t *testing.T) {
	r := xrand.New(9)
	in := randomInstance(r)
	order := NearestOrder(in)
	if len(order) != in.NumTxns() {
		t.Fatalf("order has %d entries", len(order))
	}
	seen := make(map[tm.TxnID]bool)
	for _, id := range order {
		if seen[id] {
			t.Fatalf("duplicate %d", id)
		}
		seen[id] = true
	}
	// List scheduling over it must be feasible.
	res, err := List{Order: order}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < 1 {
		t.Fatal("empty schedule")
	}
}

func TestNearestOrderReducesComm(t *testing.T) {
	// On a line, nearest order sweeps; its schedule's communication is
	// no worse than random-order list scheduling on the same instance.
	topo := topology.NewLine(64)
	in := tm.UniformK(16, 2).Generate(xrand.New(10), topo.Graph(), nil, topo.Graph().Nodes(), tm.PlaceAtRandomUser)
	near, err := List{Order: NearestOrder(in)}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Random{Rng: xrand.New(11)}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	comm := func(s *schedule.Schedule) (c int64) {
		for _, d := range s.Travel(in) {
			c += d
		}
		return c
	}
	if near, rnd := comm(near.Schedule), comm(rnd.Schedule); near > rnd {
		t.Fatalf("nearest order comm %d > random %d", near, rnd)
	}
}
