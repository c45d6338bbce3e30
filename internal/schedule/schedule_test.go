package schedule

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
)

// tinyInstance: line 0-1-2-3, two objects.
//
//	txn0@node0 uses {0}; txn1@node1 uses {0,1}; txn2@node3 uses {1}.
//	homes: object0@node0, object1@node3.
func tinyInstance() *tm.Instance {
	g := graph.New(4)
	for i := 0; i < 3; i++ {
		g.AddUnitEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return tm.NewInstance(g, nil, 2, []tm.Txn{
		{Node: 0, Objects: []tm.ObjectID{0}},
		{Node: 1, Objects: []tm.ObjectID{0, 1}},
		{Node: 3, Objects: []tm.ObjectID{1}},
	}, []graph.NodeID{0, 3})
}

func TestValidateAccepts(t *testing.T) {
	in := tinyInstance()
	s := &Schedule{Times: []int64{1, 3, 1}}
	// obj0: txn0@t1(node0,home) → txn1@t3 (dist 1 ≤ 2 gap) ok.
	// obj1: txn2@t1(node3,home) → txn1@t3 (dist 2 ≤ 2 gap) ok.
	if err := s.Validate(in); err != nil {
		t.Fatalf("feasible schedule rejected: %v", err)
	}
}

func TestValidateRejectsEarlyFirstUse(t *testing.T) {
	in := tinyInstance()
	// txn1 at t=1 needs object1 from node3 (distance 2).
	s := &Schedule{Times: []int64{1, 1, 4}}
	if err := s.Validate(in); err == nil {
		t.Fatal("accepted schedule where object cannot reach its first user")
	}
}

func TestValidateRejectsTightChain(t *testing.T) {
	in := tinyInstance()
	// obj1 held by txn1@t2 (node1) then txn2@t3 (node3): gap 1 < dist 2.
	s := &Schedule{Times: []int64{1, 2, 3}}
	if err := s.Validate(in); err == nil {
		t.Fatal("accepted schedule violating transfer time")
	}
}

func TestValidateRejectsNonPositiveTimes(t *testing.T) {
	in := tinyInstance()
	s := &Schedule{Times: []int64{0, 2, 5}}
	if err := s.Validate(in); err == nil {
		t.Fatal("accepted t=0")
	}
}

func TestValidateRejectsWrongLength(t *testing.T) {
	in := tinyInstance()
	s := &Schedule{Times: []int64{1, 2}}
	if err := s.Validate(in); err == nil {
		t.Fatal("accepted wrong-length schedule")
	}
}

func TestValidateRejectsTiesOnSharedObject(t *testing.T) {
	in := tinyInstance()
	// txn0 and txn1 share object 0 and both run at t=2.
	s := &Schedule{Times: []int64{2, 2, 4}}
	if err := s.Validate(in); err == nil {
		t.Fatal("accepted simultaneous execution of conflicting transactions")
	}
}

func TestMakespanAndShift(t *testing.T) {
	s := &Schedule{Times: []int64{4, 9, 2}}
	if s.Makespan() != 9 {
		t.Fatalf("Makespan = %d", s.Makespan())
	}
	s.Shift(3)
	if s.Times[0] != 7 || s.Makespan() != 12 {
		t.Fatal("Shift broken")
	}
	c := s.Clone()
	c.Times[0] = 100
	if s.Times[0] == 100 {
		t.Fatal("Clone shares backing array")
	}
}

func TestOrderAndRoute(t *testing.T) {
	in := tinyInstance()
	s := &Schedule{Times: []int64{5, 2, 8}}
	h := s.Handoffs(in)
	// users of obj0: txn0(t5), txn1(t2) → [1 0]; the sweep is [1 0 2].
	if order := h.Of(0); !slices.Equal(order, []tm.TxnID{1, 0}) {
		t.Fatalf("Handoffs.Of(0) = %v", order)
	}
	if !slices.Equal(h.Sweep, []tm.TxnID{1, 0, 2}) {
		t.Fatalf("Handoffs.Sweep = %v", h.Sweep)
	}
	// obj0 routes home node0 → txn1@node1 → txn0@node0 (1+1); obj1
	// routes home node3 → txn1@node1 → txn2@node3 (2+2).
	travel := s.Travel(in)
	want := []int64{2, 4}
	if len(travel) != 2 || travel[0] != want[0] || travel[1] != want[1] {
		t.Fatalf("Travel = %v, want %v", travel, want)
	}
}

func TestRouteCollapsesStationaryObject(t *testing.T) {
	g := graph.New(2)
	g.AddUnitEdge(0, 1)
	in := tm.NewInstance(g, nil, 1, []tm.Txn{{Node: 0, Objects: []tm.ObjectID{0}}}, []graph.NodeID{0})
	s := &Schedule{Times: []int64{1}}
	if tr := s.Travel(in); len(tr) != 1 || tr[0] != 0 {
		t.Fatalf("Travel = %v, want the object to stay home", tr)
	}
}

func TestCommCost(t *testing.T) {
	in := tinyInstance()
	s := &Schedule{Times: []int64{1, 3, 1}}
	// obj0: 0→1 (1) ; obj1: 3→1 (2). Total 3.
	if tr := s.Travel(in); !slices.Equal(tr, []int64{1, 2}) {
		t.Fatalf("Travel = %v, want [1 2]", tr)
	}
}

// listSchedule builds a feasible schedule by list scheduling a random
// order onto a fresh chain — the generator for property tests.
func listSchedule(r *rand.Rand, in *tm.Instance) *Schedule {
	c := NewChain(in.Metric, in.Home, in.G.NumNodes())
	s := New(in.NumTxns())
	for _, i := range r.Perm(in.NumTxns()) {
		txn := &in.Txns[i]
		s.Times[i] = c.Earliest(txn.Node, txn.Objects)
		c.Commit(txn.Node, txn.Objects, s.Times[i])
	}
	return s
}

func randomInstance(r *rand.Rand) *tm.Instance {
	n := 3 + r.Intn(20)
	w := 2 + r.Intn(8)
	k := 1 + r.Intn(minInt(w, 3))
	g := graph.New(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[r.Intn(i)]), 1+r.Int63n(4))
	}
	return tm.UniformK(w, k).Generate(r, g, nil, g.Nodes(), tm.PlaceAtRandomUser)
}

func TestListScheduleAlwaysFeasibleProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r)
		s := listSchedule(r, in)
		return s.Validate(in) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedingUpATransactionBreaksFeasibilityProperty(t *testing.T) {
	// Take a feasible schedule and pull one conflicting transaction
	// earlier than its object chain allows: Validate must notice.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r)
		s := listSchedule(r, in)
		// Find an object with ≥ 2 users and break its chain.
		for o := 0; o < in.NumObjects; o++ {
			users := s.Handoffs(in).Of(tm.ObjectID(o))
			if len(users) < 2 {
				continue
			}
			last := users[len(users)-1]
			prev := users[len(users)-2]
			s.Times[last] = s.Times[prev] // tie on a shared object: infeasible
			return s.Validate(in) != nil
		}
		return true // no shareable object; nothing to break
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
