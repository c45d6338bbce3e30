package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dtmsched/internal/core"
	"dtmsched/internal/faults"
	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// twoNodeInstance: one transaction at node 1 requesting the object homed at
// node 0, one unit link between them.
func twoNodeInstance() *tm.Instance {
	g := graph.New(2)
	g.AddUnitEdge(0, 1)
	return tm.NewInstance(g, nil, 1, []tm.Txn{
		{Node: 1, Objects: []tm.ObjectID{0}},
	}, []graph.NodeID{0})
}

// ringInstance: a 4-cycle with one transaction at node 1 requesting the
// object homed at node 0; the direct link can be cut to force the 3-hop
// detour.
func ringInstance() *tm.Instance {
	g := graph.New(4)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	g.AddUnitEdge(2, 3)
	g.AddUnitEdge(3, 0)
	return tm.NewInstance(g, nil, 1, []tm.Txn{
		{Node: 1, Objects: []tm.ObjectID{0}},
	}, []graph.NodeID{0})
}

func TestRunFaultyNilInjectorMatchesRun(t *testing.T) {
	in := tinyInstance()
	s := &schedule.Schedule{Times: []int64{1, 3, 1}}
	want, err := Run(in, s, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, inj := range map[string]*faults.Plan{
		"nil":        nil,
		"empty-plan": faults.MustFromFaults(),
	} {
		got, err := Run(in, s, Options{Trace: true, Faults: inj})
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		if got.Fault != nil {
			t.Errorf("%s: empty plan produced a report: %v", name, got.Fault)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result differs from the fault-free run:\n%+v\nvs\n%+v", name, got, want)
		}
	}
}

func TestRunFaultyHarmlessScriptMatchesRun(t *testing.T) {
	// A scripted plan whose faults never intersect the execution must
	// be event-identical to Run — same trace, same counters — with an
	// all-zero recovery report.
	in := tinyInstance()
	s := &schedule.Schedule{Times: []int64{1, 3, 1}}
	want := MustRun(in, s, Options{Trace: true})
	inj := faults.MustFromFaults(
		faults.Fault{Kind: faults.LinkDown, From: 100, To: 110, U: 2, V: 3},
		faults.Fault{Kind: faults.NodeCrash, From: 50, To: 60, Node: 2},
		faults.Fault{Kind: faults.MoveDrop, Object: 0, Seq: 9}, // object 0 never dispatches 10 times
	)
	got, err := Run(in, s, Options{Trace: true, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	fr := got.Fault
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Errorf("events differ:\n%v\nvs\n%v", got.Events, want.Events)
	}
	if got.Makespan != want.Makespan || got.CommCost != want.CommCost || got.Moves != want.Moves {
		t.Errorf("counters differ: %+v vs %+v", got, want)
	}
	if fr == nil {
		t.Fatal("non-empty plan must produce a report")
	}
	if fr.Retries != 0 || fr.Reroutes != 0 || fr.DeferredCommits != 0 || fr.BlockedWaits != 0 || fr.DeferredMoves != 0 {
		t.Errorf("harmless plan recorded recovery work: %v", fr)
	}
	if fr.Inflation != 1.0 || fr.Makespan != want.Makespan || fr.BaselineMakespan != want.Makespan {
		t.Errorf("harmless plan inflated the makespan: %v", fr)
	}
}

func TestRunFaultyScriptedDropBacksOff(t *testing.T) {
	// Drop obj1's dispatch from txn2 toward txn1 (its second attempt).
	// The re-dispatch departs one backoff step later, so txn1's commit
	// slips from 3 to 4.
	in := tinyInstance()
	s := &schedule.Schedule{Times: []int64{1, 3, 1}}
	inj := faults.MustFromFaults(faults.Fault{Kind: faults.MoveDrop, Object: 1, Seq: 1})
	res, err := Run(in, s, Options{Trace: true, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Fault
	if res.Makespan != 4 || res.Executed != 3 {
		t.Fatalf("makespan = %d, executed = %d; want 4, 3", res.Makespan, res.Executed)
	}
	if fr.Retries != 1 || fr.WastedComm != 2 || fr.DeferredCommits != 1 || fr.DeferredSteps != 1 {
		t.Fatalf("report = %v; want 1 retry, 2 wasted, 1 deferred commit by 1 step", fr)
	}
	if fr.Inflation != 4.0/3.0 {
		t.Fatalf("inflation = %v, want 4/3", fr.Inflation)
	}
	// CommCost counts only delivered moves: 1 (obj0) + 2 (obj1 retry).
	if res.CommCost != 3 {
		t.Fatalf("CommCost = %d, want 3 (wasted distance excluded)", res.CommCost)
	}
	var drops, defers int
	for _, ev := range res.Events {
		switch ev.Kind {
		case EventDrop:
			drops++
			if ev.Object != 1 || ev.Step != 1 {
				t.Errorf("unexpected drop event %v", ev)
			}
		case EventDefer:
			defers++
		}
	}
	if drops != 1 || defers != 1 {
		t.Errorf("trace has %d drops, %d defers; want 1, 1", drops, defers)
	}
}

func TestRunFaultyCrashDefersCommit(t *testing.T) {
	// Node 1 is down over [2, 6): txn1 (scheduled at 3) commits at the
	// restart.
	in := tinyInstance()
	s := &schedule.Schedule{Times: []int64{1, 3, 1}}
	inj := faults.MustFromFaults(faults.Fault{Kind: faults.NodeCrash, From: 2, To: 6, Node: 1})
	res, err := Run(in, s, Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Fault
	if res.Makespan != 6 {
		t.Fatalf("makespan = %d, want 6 (deferred to restart)", res.Makespan)
	}
	if fr.DeferredCommits != 1 || fr.DeferredSteps != 3 {
		t.Fatalf("report = %v; want 1 deferred commit by 3 steps", fr)
	}
	if fr.Inflation != 2.0 {
		t.Fatalf("inflation = %v, want 2.0", fr.Inflation)
	}
}

func TestRunFaultyLinkDownReroutes(t *testing.T) {
	// Cutting the direct 0–1 link forces the object around the ring:
	// distance 3 instead of 1, commit at 3.
	in := ringInstance()
	s := &schedule.Schedule{Times: []int64{1}}
	inj := faults.MustFromFaults(faults.Fault{Kind: faults.LinkDown, From: 0, To: 5, U: 0, V: 1})
	res, err := Run(in, s, Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Fault
	if res.Makespan != 3 || res.CommCost != 3 {
		t.Fatalf("makespan = %d, commcost = %d; want 3, 3", res.Makespan, res.CommCost)
	}
	if fr.Reroutes != 1 || fr.RerouteExtra != 2 {
		t.Fatalf("report = %v; want 1 reroute with 2 extra steps", fr)
	}
}

func TestRunFaultyLinkSlowStretchesHop(t *testing.T) {
	// Slowing the only link by 4× makes the 1-step hop take 4 steps.
	in := twoNodeInstance()
	s := &schedule.Schedule{Times: []int64{1}}
	inj := faults.MustFromFaults(faults.Fault{Kind: faults.LinkSlow, From: 0, To: 10, U: 0, V: 1, Factor: 4})
	res, err := Run(in, s, Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Fault
	if res.Makespan != 4 {
		t.Fatalf("makespan = %d, want 4", res.Makespan)
	}
	if fr.Reroutes != 1 || fr.RerouteExtra != 3 {
		t.Fatalf("report = %v; want the slowed hop accounted as 3 extra steps", fr)
	}
}

func TestRunFaultyPartitionWaitsForBoundary(t *testing.T) {
	// The only link is down over [0, 5): the dispatch waits out the
	// partition and delivers at 6.
	in := twoNodeInstance()
	s := &schedule.Schedule{Times: []int64{1}}
	inj := faults.MustFromFaults(faults.Fault{Kind: faults.LinkDown, From: 0, To: 5, U: 0, V: 1})
	res, err := Run(in, s, Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Fault
	if res.Makespan != 6 {
		t.Fatalf("makespan = %d, want 6 (departs at the boundary)", res.Makespan)
	}
	if fr.BlockedWaits != 1 {
		t.Fatalf("report = %v; want 1 blocked wait", fr)
	}
}

func TestRunFaultyPermanentPartitionErrors(t *testing.T) {
	in := twoNodeInstance()
	s := &schedule.Schedule{Times: []int64{1}}
	inj := faults.MustFromFaults(faults.Fault{Kind: faults.LinkDown, From: 0, To: faults.Forever, U: 0, V: 1})
	_, err := Run(in, s, Options{Faults: inj})
	if err == nil || !strings.Contains(err.Error(), "permanently partitioned") {
		t.Fatalf("err = %v, want permanent-partition error", err)
	}
}

func TestRunFaultyPermanentCrashErrors(t *testing.T) {
	in := twoNodeInstance()
	s := &schedule.Schedule{Times: []int64{1}}
	inj := faults.MustFromFaults(faults.Fault{Kind: faults.NodeCrash, From: 0, To: faults.Forever, Node: 1})
	_, err := Run(in, s, Options{Faults: inj})
	if err == nil || !strings.Contains(err.Error(), "never restarts") {
		t.Fatalf("err = %v, want permanent-crash error", err)
	}
}

func TestRunFaultyRetryBudget(t *testing.T) {
	// A drop rate of 1 loses every dispatch; the bounded retry policy
	// must abort instead of spinning.
	in := twoNodeInstance()
	s := &schedule.Schedule{Times: []int64{1}}
	inj := faults.MustNew(faults.Config{Seed: 1, DropRate: 1}, in.G)
	_, err := Run(in, s, Options{Faults: inj})
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("err = %v, want retry-budget error", err)
	}
}

// TestRunRejectsOutOfRangeObject and TestRunRejectsDuplicateObject cover
// the hardened input validation: hand-built instances that bypass
// tm.NewInstance used to hit the simulator's dense object state as an
// index panic.
func TestRunRejectsOutOfRangeObject(t *testing.T) {
	g := graph.New(2)
	g.AddUnitEdge(0, 1)
	in := &tm.Instance{G: g, Metric: g, NumObjects: 1,
		Txns: []tm.Txn{{ID: 0, Node: 1, Objects: []tm.ObjectID{5}}},
		Home: []graph.NodeID{0}}
	s := &schedule.Schedule{Times: []int64{1}}
	if _, err := Run(in, s, Options{}); err == nil || !strings.Contains(err.Error(), "outside [0,1)") {
		t.Fatalf("err = %v, want out-of-range object error", err)
	}
}

func TestRunRejectsDuplicateObject(t *testing.T) {
	g := graph.New(2)
	g.AddUnitEdge(0, 1)
	in := &tm.Instance{G: g, Metric: g, NumObjects: 2,
		Txns: []tm.Txn{{ID: 0, Node: 1, Objects: []tm.ObjectID{0, 0}}},
		Home: []graph.NodeID{0, 0}}
	s := &schedule.Schedule{Times: []int64{1}}
	if _, err := Run(in, s, Options{}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("err = %v, want duplicate-object error", err)
	}
	in.Txns[0].Objects = []tm.ObjectID{1, 0}
	if _, err := Run(in, s, Options{}); err == nil || !strings.Contains(err.Error(), "unsorted") {
		t.Fatalf("err = %v, want unsorted-objects error", err)
	}
}

func TestRunEmptyInjectorAllocsLikeRun(t *testing.T) {
	// The fault machinery must cost nothing when unused: Run with a nil or
	// empty plan allocates exactly what Options{} does.
	in := tinyInstance()
	s := &schedule.Schedule{Times: []int64{1, 3, 1}}
	in.PrecomputeDist(1) // steady-state distance oracle for every run
	MustRun(in, s, Options{})
	base := testing.AllocsPerRun(200, func() { MustRun(in, s, Options{}) })
	for name, inj := range map[string]*faults.Plan{
		"nil":   nil,
		"empty": faults.MustFromFaults(),
	} {
		got := testing.AllocsPerRun(200, func() { MustRun(in, s, Options{Faults: inj}) })
		if got != base {
			t.Errorf("%s plan: Run allocates %.1f/op vs %.1f/op without one; the empty path must add nothing", name, got, base)
		}
	}
}

// serialSchedule builds the trivially feasible schedule that commits
// transaction i at step (i+1)·n: every hop of every object fits in the n
// steps between consecutive commits on a unit-weight graph of n nodes.
func serialSchedule(in *tm.Instance) *schedule.Schedule {
	n := int64(in.G.NumNodes())
	s := schedule.New(in.NumTxns())
	for i := range s.Times {
		s.Times[i] = int64(i+1) * n
	}
	return s
}

func TestFaultMatrixSmoke(t *testing.T) {
	// The CI fault matrix: 3 rates × 2 topologies. Every combination must
	// recover (all transactions commit), keep inflation ≥ 1, and be fully
	// deterministic — two runs of the same plan produce byte-identical
	// reports. ci.sh runs this under -race.
	topos := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid-6", topology.NewSquareGrid(6).Graph()},
		{"clique-16", topology.NewClique(16).Graph()},
	}
	rates := []float64{0.02, 0.05, 0.10}
	for _, tp := range topos {
		for _, rate := range rates {
			t.Run(fmt.Sprintf("%s/rate=%g", tp.name, rate), func(t *testing.T) {
				rng := xrand.NewDerived(99, "faultmatrix", tp.name, fmt.Sprint(rate))
				in := tm.UniformK(8, 2).Generate(rng, tp.g, nil, tp.g.Nodes(), tm.PlaceAtRandomUser)
				s := serialSchedule(in)
				if err := s.Validate(in); err != nil {
					t.Fatalf("serial schedule infeasible: %v", err)
				}
				plan := faults.MustNew(faults.Config{
					Seed: 7, Horizon: s.Makespan(),
					LinkDownRate: rate, LinkSlowRate: rate, CrashRate: rate / 2, DropRate: rate / 2,
				}, tp.g)
				run := func() (*Result, *faults.Report) {
					res, err := Run(in, s, Options{Trace: true, Faults: plan})
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					return res, res.Fault
				}
				resA, frA := run()
				resB, frB := run()
				if resA.Executed != in.NumTxns() {
					t.Fatalf("executed %d of %d transactions", resA.Executed, in.NumTxns())
				}
				if frA != nil && frA.Inflation < 1.0 {
					t.Fatalf("inflation %v < 1", frA.Inflation)
				}
				ja, _ := json.Marshal(frA)
				jb, _ := json.Marshal(frB)
				if string(ja) != string(jb) {
					t.Fatalf("fault report is nondeterministic:\n%s\nvs\n%s", ja, jb)
				}
				if !reflect.DeepEqual(resA.Events, resB.Events) {
					t.Fatal("event trace is nondeterministic")
				}
			})
		}
	}
}

// survivingGraph is the reference for faultEnv.dist: the surviving
// subgraph at step, built explicitly — crashed nodes and down links
// removed, slowed links reweighted.
func survivingGraph(in *tm.Instance, inj *faults.Plan, step int64) *graph.Graph {
	n := in.G.NumNodes()
	g := graph.New(n)
	for u := 0; u < n; u++ {
		if _, down := inj.NodeDownUntil(graph.NodeID(u), step); down {
			continue
		}
		for _, edge := range in.G.Neighbors(graph.NodeID(u)) {
			if edge.To <= graph.NodeID(u) {
				continue
			}
			if _, down := inj.NodeDownUntil(edge.To, step); down {
				continue
			}
			f := inj.LinkFactor(graph.NodeID(u), edge.To, step)
			if f <= 0 {
				continue
			}
			g.AddEdge(graph.NodeID(u), edge.To, edge.Weight*f)
		}
	}
	return g
}

// TestFaultDistMatchesSurvivingSubgraph checks the two-stage reroute
// query against Dijkstra/BFS on the explicitly built surviving subgraph,
// for every node pair at every step of random plans: equal distances, and
// a partition (crashed endpoints included) exactly where the reference
// reports Inf. The A* stage alone must match too, and each stage must
// answer some of the queries.
func TestFaultDistMatchesSurvivingSubgraph(t *testing.T) {
	topos := []struct {
		name   string
		topo   topology.Topology
		closed bool // metric: the topology's closed form, else the graph
	}{
		{"grid-5", topology.NewSquareGrid(5), true},
		{"grid-5-graphmetric", topology.NewSquareGrid(5), false},
		{"clique-8", topology.NewClique(8), true},
		{"line-12", topology.NewLine(12), true},
		{"star-3x4", topology.NewStar(3, 4), true},
		{"cluster-3x4", topology.NewCluster(3, 4, 6), true},
		{"fogcloud-3x3", topology.NewFogCloud([]int{3, 3}, []int64{5, 2}), true},
	}
	const horizon = 48
	for _, tp := range topos {
		t.Run(tp.name, func(t *testing.T) {
			g := tp.topo.Graph()
			var metric graph.Metric = g
			if tp.closed {
				metric = graph.FuncMetric(tp.topo.Dist)
			}
			in := tm.NewInstance(g, metric, 0, nil, nil)
			background := faults.MustNew(faults.Config{
				Seed: 3, Horizon: horizon, Recur: 12, MeanOutage: 4,
				LinkDownRate: 0.3, LinkSlowRate: 0.4, CrashRate: 0.15,
			}, g)
			// Scripted overlay, planned together with the background's
			// faults: overlapping slowdowns on one link, a crash of node 0
			// (an endpoint of many queries), and, at steps [30, 36), every
			// link of node 1 cut (a true partition).
			script := []faults.Fault{
				{Kind: faults.LinkSlow, From: 5, To: 25, U: 0, V: g.Neighbors(0)[0].To, Factor: 3},
				{Kind: faults.LinkSlow, From: 10, To: 20, U: 0, V: g.Neighbors(0)[0].To, Factor: 5},
				{Kind: faults.NodeCrash, From: 14, To: 18, Node: 0},
			}
			for _, e := range g.Neighbors(1) {
				script = append(script, faults.Fault{Kind: faults.LinkDown, From: 30, To: 36, U: 1, V: e.To})
			}
			for name, inj := range map[string]*faults.Plan{
				"plan":    background,
				"overlay": faults.MustFromFaults(append(slices.Clone(background.Faults()), script...)...),
			} {
				env := newFaultEnv(in, schedule.New(0), inj)
				var queries, partitioned, viaDAG, viaSearch int
				wrapped := false
				for step := int64(0); step <= horizon+2; step++ {
					ref := survivingGraph(in, inj, step)
					for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
						for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
							want := ref.Dist(u, v)
							got, ok := env.dist(step, u, v)
							queries++
							if env.stamp != 0 && !wrapped {
								// Wrap the stamp right after the first search, so
								// its leftover marks would collide unless cleared.
								env.stamp = ^uint32(0)
								wrapped = true
							}
							if u != v && !crashed(inj, step, u) && !crashed(inj, step, v) {
								// Both endpoints are up, so dist ran its stages:
								// basePath answered if it finds a path, else search.
								if env.basePath(step, u, v) {
									viaDAG++
									if want != in.Dist(u, v) {
										t.Fatalf("%s: step %d, %d→%d: basePath found a path of base length %d, want %d",
											name, step, u, v, in.Dist(u, v), want)
									}
								} else {
									viaSearch++
								}
								if d, ok := env.search(step, u, v); ok != (want != graph.Inf) || ok && d != want {
									t.Fatalf("%s: step %d, %d→%d: search (%d, %v), want %d", name, step, u, v, d, ok, want)
								}
							}
							if want == graph.Inf {
								partitioned++
								if ok {
									t.Fatalf("%s: step %d, %d→%d: dist %d, want partitioned", name, step, u, v, got)
								}
								continue
							}
							if !ok || got != want {
								t.Fatalf("%s: step %d, %d→%d: dist (%d, %v), want %d", name, step, u, v, got, ok, want)
							}
						}
					}
				}
				if partitioned == 0 || partitioned == queries {
					t.Fatalf("%s: %d of %d queries partitioned; the plan must exercise both outcomes", name, partitioned, queries)
				}
				if viaDAG == 0 || viaSearch == 0 {
					t.Fatalf("%s: basePath answered %d queries, search %d; each stage must answer some", name, viaDAG, viaSearch)
				}
			}
		})
	}
}

// crashed reports whether inj has node v down at step.
func crashed(inj *faults.Plan, step int64, v graph.NodeID) bool {
	_, d := inj.NodeDownUntil(v, step)
	return d
}

// TestFaultDistBacktracks scripts grids where the DAG walk's first
// choice from (0,0) toward (2,2) — right to (0,1), then right to (0,2) —
// is blocked two hops in, so only a walk that backtracks finds the
// healthy path of base length through (1,0). With (0,0)'s down link cut
// as well, no such path survives, and the A* stage must find the detour.
func TestFaultDistBacktracks(t *testing.T) {
	grid := topology.NewSquareGrid(4)
	g := grid.Graph()
	in := tm.NewInstance(g, graph.FuncMetric(grid.Dist), 0, nil, nil)
	u, v := grid.ID(0, 0), grid.ID(2, 2)
	if first := g.Neighbors(u)[0].To; first != grid.ID(0, 1) {
		t.Fatalf("first neighbor of (0,0) is node %d, want (0,1): the script no longer blocks the first DAG branch", first)
	}
	cut := func(r1, c1, r2, c2 int) faults.Fault {
		return faults.Fault{Kind: faults.LinkDown, From: 0, To: 10, U: grid.ID(r1, c1), V: grid.ID(r2, c2)}
	}
	blocked := []faults.Fault{cut(0, 2, 1, 2), cut(0, 1, 1, 1)}
	for _, tc := range []struct {
		name   string
		script []faults.Fault
		viaDAG bool
		want   int64
	}{
		{"backtrack", blocked, true, 4},
		{"exhausted", append(slices.Clone(blocked), cut(0, 0, 1, 0)), false, 6},
	} {
		inj := faults.MustFromFaults(tc.script...)
		env := newFaultEnv(in, schedule.New(0), inj)
		got, ok := env.dist(5, u, v)
		if ref := survivingGraph(in, inj, 5).Dist(u, v); !ok || got != tc.want || ref != tc.want {
			t.Fatalf("%s: dist (%d, %v), reference %d; want %d", tc.name, got, ok, ref, tc.want)
		}
		if viaDAG := env.basePath(5, u, v); viaDAG != tc.viaDAG {
			t.Fatalf("%s: basePath found a base-length path: %v, want %v", tc.name, viaDAG, tc.viaDAG)
		}
	}
}

// TestRunFaultyAllocsIndependentOfBoundaries pins that a window's replay
// costs the same however many fault boundaries its plan holds: reroute
// scratch is sized by the graph, never by the plan. The same window runs
// under a 1-chunk and a 200-chunk plan over one horizon (rates low enough
// that no fault touches the window, so both replays do identical work).
// The counters are process-wide, so a stray allocation elsewhere can only
// add to a measurement: each plan is measured in several rounds, and the
// per-plan minima must be equal.
func TestRunFaultyAllocsIndependentOfBoundaries(t *testing.T) {
	g := topology.NewSquareGrid(8).Graph()
	in := tm.UniformK(12, 2).Generate(xrand.NewDerived(4, "allocs"), g, nil, g.Nodes(), tm.PlaceAtRandomUser)
	in.PrecomputeDist(1)
	s := serialSchedule(in)
	const horizon = 200 * 64
	plan := func(recur int64) *faults.Plan {
		p := faults.MustNew(faults.Config{Seed: 9, Horizon: horizon, Recur: recur, MeanOutage: 8,
			LinkDownRate: 0.01, LinkSlowRate: 0.01, CrashRate: 0.01}, g)
		if len(p.Boundaries()) == 0 {
			t.Fatalf("recur %d: plan has no boundaries", recur)
		}
		return p
	}
	one, many := plan(horizon), plan(horizon/200)
	if len(many.Boundaries()) < 100*len(one.Boundaries()) {
		t.Fatalf("boundaries: %d at 1 chunk, %d at 200; want a ≥100× spread",
			len(one.Boundaries()), len(many.Boundaries()))
	}
	cost := func(p *faults.Plan) (allocs, bytes uint64) {
		run := func() {
			fr := MustRun(in, s, Options{Faults: p}).Fault
			if fr.Reroutes != 0 || fr.BlockedWaits != 0 || fr.DeferredCommits != 0 {
				t.Fatalf("a fault touched the window: %v", fr)
			}
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		run() // warm the distance oracle
		const rounds, runs = 5, 20
		allocs, bytes = math.MaxUint64, math.MaxUint64
		for round := 0; round < rounds; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return allocs, bytes
	}
	oneAllocs, oneBytes := cost(one)
	manyAllocs, manyBytes := cost(many)
	if oneAllocs != manyAllocs || oneBytes != manyBytes {
		t.Fatalf("faulty Run cost grows with boundaries: %d allocs / %d B at %d boundaries, %d allocs / %d B at %d",
			oneAllocs, oneBytes, len(one.Boundaries()), manyAllocs, manyBytes, len(many.Boundaries()))
	}
}

// servingWindow builds one serving-sized window — 56 transactions on
// distinct grid16 nodes (w = 64, k = 2), greedily scheduled — and returns
// it with its graph.
func servingWindow(b *testing.B) (*graph.Graph, *tm.Instance, *core.Result) {
	grid := topology.NewSquareGrid(16)
	g := grid.Graph()
	rng := xrand.NewDerived(1, "faulty-replay")
	nodes := g.Nodes()
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	in := tm.UniformK(64, 2).Generate(rng, g, graph.FuncMetric(grid.Dist), nodes[:56], tm.PlaceRandom)
	res, err := (&core.Greedy{}).Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	return g, in, res
}

// chaosPlan builds the chaos plan the streaming service builds at rate
// 0.1 over horizon (link outages and slowdowns at the rate, crashes at
// half of it, drops at a quarter; 256-step chunks, 128-step mean
// outages).
func chaosPlan(g *graph.Graph, horizon int64) *faults.Plan {
	const rate, chunk = 0.1, 256
	return faults.MustNew(faults.Config{
		Seed: 1, Horizon: horizon, Recur: chunk, MeanOutage: chunk / 2,
		LinkDownRate: rate, LinkSlowRate: rate, CrashRate: rate / 2, DropRate: rate / 4,
	}, g)
}

// benchReplay times sim.Run of one window under plan, after checking
// that the plan reroutes at least one of its moves.
func benchReplay(b *testing.B, in *tm.Instance, s *schedule.Schedule, plan *faults.Plan) {
	if fr := MustRun(in, s, Options{Faults: plan}).Fault; fr.Reroutes == 0 {
		b.Fatalf("the plan reroutes no move: %v", fr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustRun(in, s, Options{Faults: plan})
	}
}

// BenchmarkFaultyReplay replays one serving-sized window (servingWindow)
// under a chaos plan (chaosPlan) spanning the window's makespan. The
// replay's reroute queries dominate its cost.
func BenchmarkFaultyReplay(b *testing.B) {
	g, in, res := servingWindow(b)
	benchReplay(b, in, res.Schedule, chaosPlan(g, res.Makespan))
}

// BenchmarkFaultyReplayLongPlan replays the same window shifted to the
// middle of a 50,000-step chaos plan, the shape of a long chaos stream's.
// Its lookups meet every site's faults over the whole horizon, which a
// plan spanning one window's makespan never shows.
func BenchmarkFaultyReplayLongPlan(b *testing.B) {
	g, in, res := servingWindow(b)
	const horizon = 50_000
	shifted := &schedule.Schedule{Times: slices.Clone(res.Schedule.Times)}
	for i := range shifted.Times {
		shifted.Times[i] += horizon / 2
	}
	benchReplay(b, in, shifted, chaosPlan(g, horizon))
}
