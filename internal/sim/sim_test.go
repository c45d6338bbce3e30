package sim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

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

func TestRunFeasible(t *testing.T) {
	in := tinyInstance()
	s := &schedule.Schedule{Times: []int64{1, 3, 1}}
	res, err := Run(in, s, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Makespan != 3 || res.Executed != 3 {
		t.Fatalf("res = %+v", res)
	}
	// obj0 travels 0→1 (1 hop), obj1 travels 3→1 (2 hops).
	if res.CommCost != 3 {
		t.Fatalf("CommCost = %d, want 3", res.CommCost)
	}
	if res.ObjectDistance[0] != 1 || res.ObjectDistance[1] != 2 {
		t.Fatalf("ObjectDistance = %v", res.ObjectDistance)
	}
}

func TestRunRejectsLateObject(t *testing.T) {
	in := tinyInstance()
	s := &schedule.Schedule{Times: []int64{1, 1, 4}}
	if _, err := Run(in, s, Options{}); err == nil {
		t.Fatal("simulator accepted an object arriving after execution")
	}
}

func TestRunRejectsConflictTie(t *testing.T) {
	in := tinyInstance()
	s := &schedule.Schedule{Times: []int64{2, 2, 5}}
	if _, err := Run(in, s, Options{}); err == nil {
		t.Fatal("simulator accepted two simultaneous holders of one object")
	}
}

func TestRunRejectsZeroTime(t *testing.T) {
	in := tinyInstance()
	s := &schedule.Schedule{Times: []int64{0, 2, 2}}
	if _, err := Run(in, s, Options{}); err == nil {
		t.Fatal("simulator accepted step 0")
	}
}

func TestRunRejectsWrongLength(t *testing.T) {
	in := tinyInstance()
	s := &schedule.Schedule{Times: []int64{1}}
	if _, err := Run(in, s, Options{}); err == nil {
		t.Fatal("simulator accepted wrong-length schedule")
	}
}

// TestRunMaxStepsEnforcedOnArrivals: the step cap binds actual event
// steps. Times {1,2,1} have makespan 2, the derived cap, but committing
// txn 2 forwards object 1 from node 3 toward node 1 (distance 2, arriving
// at step 3) — past the cap.
func TestRunMaxStepsEnforcedOnArrivals(t *testing.T) {
	in := tinyInstance()
	s := &schedule.Schedule{Times: []int64{1, 2, 1}}
	_, err := Run(in, s, Options{})
	if err == nil {
		t.Fatal("arrival past the step limit accepted")
	}
	if !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("error %q does not name the step limit", err)
	}
}

// TestRunMaxStepsDerivedFromMakespan: without faults the step cap is the
// schedule's makespan, so a movement that cannot complete by then is
// rejected with the step-limit error (triggered branch), while feasible
// schedules — whose events all land at or before the makespan — pass
// under the derived cap (non-triggered branch).
func TestRunMaxStepsDerivedFromMakespan(t *testing.T) {
	g := graph.New(4)
	for i := 0; i < 3; i++ {
		g.AddUnitEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	in := tm.NewInstance(g, nil, 1, []tm.Txn{
		{Node: 3, Objects: []tm.ObjectID{0}},
	}, []graph.NodeID{0})
	// Makespan 1, but the object needs 3 steps from its home: the derived
	// cap rejects the dispatch at step 0.
	_, err := Run(in, &schedule.Schedule{Times: []int64{1}}, Options{})
	if err == nil {
		t.Fatal("derived cap not enforced")
	}
	if !strings.Contains(err.Error(), "step limit 1") {
		t.Fatalf("error %q does not carry the derived cap", err)
	}

	// Non-triggered: a feasible schedule runs to completion under the
	// derived cap.
	res, err := Run(in, &schedule.Schedule{Times: []int64{3}}, Options{})
	if err != nil {
		t.Fatalf("feasible schedule rejected: %v", err)
	}
	if res.Makespan != 3 || res.Executed != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestTraceEvents(t *testing.T) {
	in := tinyInstance()
	s := &schedule.Schedule{Times: []int64{1, 3, 1}}
	res, err := Run(in, s, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var execs, departs, arrives int
	for _, e := range res.Events {
		switch e.Kind {
		case EventExecute:
			execs++
		case EventDepart:
			departs++
		case EventArrive:
			arrives++
		}
		if e.String() == "" {
			t.Fatal("empty event string")
		}
	}
	if execs != 3 {
		t.Fatalf("trace has %d executes, want 3", execs)
	}
	if departs != arrives || departs != 2 {
		t.Fatalf("trace has %d departs / %d arrives, want 2/2", departs, arrives)
	}
	// Event strings mention the object for transfers.
	found := false
	for _, e := range res.Events {
		if e.Kind == EventDepart && strings.Contains(e.String(), "obj") {
			found = true
		}
	}
	if !found {
		t.Fatal("no depart event mentions an object")
	}
}

func TestMustRunPanicsOnInfeasible(t *testing.T) {
	in := tinyInstance()
	s := &schedule.Schedule{Times: []int64{1, 1, 4}}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRun did not panic")
		}
	}()
	MustRun(in, s, Options{})
}

// randomInstance and randomTimes feed the agreement property.
func randomInstance(r *rand.Rand) *tm.Instance {
	n := 3 + r.Intn(16)
	w := 2 + r.Intn(6)
	k := 1 + r.Intn(minInt(w, 3))
	g := graph.New(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[r.Intn(i)]), 1+r.Int63n(3))
	}
	return tm.UniformK(w, k).Generate(r, g, nil, g.Nodes(), tm.PlaceAtRandomUser)
}

// TestSimulatorAgreesWithValidateProperty is the keystone invariant: the
// step-by-step simulator and the algebraic feasibility rules accept
// exactly the same schedules. Random times are drawn in a small range so
// both feasible and infeasible schedules occur.
func TestSimulatorAgreesWithValidateProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r)
		s := schedule.New(in.NumTxns())
		horizon := int64(2*in.NumTxns() + 4)
		for i := range s.Times {
			s.Times[i] = 1 + r.Int63n(horizon)
		}
		algebraic := s.Validate(in) == nil
		_, err := Run(in, s, Options{})
		simulated := err == nil
		return algebraic == simulated
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRunAllocsIndependentOfObjects pins that a fault-free replay reads
// every object's itinerary from one handoff CSR: the same 64 transactions
// on an 8×8 grid, serially scheduled, cost the same number of mallocs
// whether they draw their objects from 8 or from 512.
func TestRunAllocsIndependentOfObjects(t *testing.T) {
	g := topology.NewSquareGrid(8).Graph()
	allocs := func(w int) float64 {
		in := tm.UniformK(w, 2).Generate(xrand.NewDerived(34, "objects"), g, nil, g.Nodes(), tm.PlaceAtRandomUser)
		in.PrecomputeDist(1)
		s := serialSchedule(in)
		MustRun(in, s, Options{}) // build the conflict index once
		return testing.AllocsPerRun(50, func() { MustRun(in, s, Options{}) })
	}
	if few, many := allocs(8), allocs(512); few != many {
		t.Fatalf("fault-free Run allocates %.0f times at W = 8 and %.0f at W = 512", few, many)
	}
}

// TestSimulatorCommCostMatchesSchedule cross-checks the two independent
// communication-cost computations on feasible schedules.
func TestSimulatorCommCostMatchesSchedule(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r)
		s := feasibleSchedule(r, in)
		res, err := Run(in, s, Options{})
		if err != nil {
			return false
		}
		travel := s.Travel(in)
		var total int64
		for _, d := range travel {
			total += d
		}
		return res.CommCost == total && slices.Equal(res.ObjectDistance, travel) && res.Makespan == s.Makespan()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func feasibleSchedule(r *rand.Rand, in *tm.Instance) *schedule.Schedule {
	c := schedule.NewChain(in.Metric, in.Home, in.G.NumNodes())
	s := schedule.New(in.NumTxns())
	for _, i := range r.Perm(in.NumTxns()) {
		txn := &in.Txns[i]
		// Random extra slack keeps schedules diverse but feasible.
		s.Times[i] = c.Earliest(txn.Node, txn.Objects) + r.Int63n(3)
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

// TestEventString covers every event kind, including the fallback for an
// unknown kind (a regression guard: EventExecute used to fall through to
// the default formatting).
func TestEventString(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{Step: 3, Kind: EventDepart, Object: 2, Txn: 5, From: 1, To: 4},
			"t=3 obj2 departs 1→4 (for txn 5)"},
		{Event{Step: 7, Kind: EventArrive, Object: 2, Txn: 5, To: 4},
			"t=7 obj2 arrives at 4 (for txn 5)"},
		{Event{Step: 9, Kind: EventExecute, Txn: 5, Node: 4},
			"t=9 txn 5 executes at node 4"},
		{Event{Step: 1, Kind: EventKind(99)},
			"t=1 unknown event kind 99"},
	}
	for _, c := range cases {
		if got := c.ev.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.ev, got, c.want)
		}
	}
}
