package analysis

import (
	"strings"
	"testing"

	"dtmsched/internal/core"
	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// chainInstance: line 0-1-2 with one object passed 0 → 1 → 2 tightly.
func chainInstance() (*tm.Instance, *schedule.Schedule) {
	topo := topology.NewLine(3)
	in := tm.NewInstance(topo.Graph(), graph.FuncMetric(topo.Dist), 1, []tm.Txn{
		{Node: 0, Objects: []tm.ObjectID{0}},
		{Node: 1, Objects: []tm.ObjectID{0}},
		{Node: 2, Objects: []tm.ObjectID{0}},
	}, []graph.NodeID{0})
	s := &schedule.Schedule{Times: []int64{1, 2, 3}}
	return in, s
}

func TestAnalyzeTightChain(t *testing.T) {
	in, s := chainInstance()
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	rep := Analyze(in, s)
	if rep.Makespan != 3 || rep.BusySteps != 3 || rep.PeakParallelism != 1 {
		t.Fatalf("profile wrong: %+v", rep)
	}
	if rep.CriticalLen != 3 {
		t.Fatalf("critical chain length %d, want 3", rep.CriticalLen)
	}
	want := []tm.TxnID{0, 1, 2}
	for i, id := range rep.CriticalChain {
		if id != want[i] {
			t.Fatalf("chain = %v, want %v", rep.CriticalChain, want)
		}
	}
	if len(rep.Objects) != 1 || rep.Objects[0].Travel != 2 || rep.Objects[0].Wait != 1 {
		// travel 0→1→2 = 2; wait: first use at t=1 with d=0 gives 1 slack.
		t.Fatalf("object stats wrong: %+v", rep.Objects)
	}
}

func TestAnalyzeSlackBreaksChain(t *testing.T) {
	in, _ := chainInstance()
	s := &schedule.Schedule{Times: []int64{1, 5, 6}}
	rep := Analyze(in, s)
	// 0→1 handoff has slack (5 > 1+1), 1→2 is tight (6 == 5+1).
	if rep.CriticalLen != 2 {
		t.Fatalf("critical chain length %d, want 2", rep.CriticalLen)
	}
	if rep.CriticalChain[0] != 1 || rep.CriticalChain[1] != 2 {
		t.Fatalf("chain = %v", rep.CriticalChain)
	}
}

func TestAnalyzeParallelism(t *testing.T) {
	topo := topology.NewClique(6)
	g := topo.Graph()
	txns := make([]tm.Txn, 6)
	homes := make([]graph.NodeID, 6)
	for i := range txns {
		txns[i] = tm.Txn{Node: graph.NodeID(i), Objects: []tm.ObjectID{tm.ObjectID(i)}}
		homes[i] = graph.NodeID(i)
	}
	in := tm.NewInstance(g, graph.FuncMetric(topo.Dist), 6, txns, homes)
	s := &schedule.Schedule{Times: []int64{1, 1, 1, 2, 2, 9}}
	rep := Analyze(in, s)
	if rep.PeakParallelism != 3 || rep.BusySteps != 3 {
		t.Fatalf("parallelism wrong: %+v", rep)
	}
	if rep.MeanParallelism != 2.0 {
		t.Fatalf("mean parallelism = %v, want 2", rep.MeanParallelism)
	}
}

func TestAnalyzeRealSchedule(t *testing.T) {
	topo := topology.NewSquareGrid(8)
	in := tm.UniformK(16, 2).Generate(xrand.New(1), topo.Graph(),
		graph.FuncMetric(topo.Dist), topo.Graph().Nodes(), tm.PlaceAtRandomUser)
	res, err := (&core.Grid{Topo: topo}).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(in, res.Schedule)
	if rep.Makespan != res.Makespan {
		t.Fatal("makespan mismatch")
	}
	if rep.CriticalLen < 1 {
		t.Fatal("no critical chain on a nontrivial schedule")
	}
	// Hottest-mover ordering.
	for i := 1; i < len(rep.Objects); i++ {
		if rep.Objects[i].Travel > rep.Objects[i-1].Travel {
			t.Fatal("objects not sorted by travel")
		}
	}
	out := rep.String()
	if !strings.Contains(out, "critical chain") || !strings.Contains(out, "object") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestAnalyzeEmptyObjects(t *testing.T) {
	g := graph.New(2)
	g.AddUnitEdge(0, 1)
	in := tm.NewInstance(g, nil, 1, []tm.Txn{{Node: 0, Objects: nil}}, []graph.NodeID{1})
	s := &schedule.Schedule{Times: []int64{1}}
	rep := Analyze(in, s)
	if len(rep.Objects) != 0 {
		t.Fatal("unrequested object got stats")
	}
	if rep.CriticalLen != 0 && rep.CriticalLen != 1 {
		t.Fatalf("chain length %d", rep.CriticalLen)
	}
}

// TestCriticalChainTieBreak: two equally long tight chains end at
// different steps. The chain with the smaller tail ID wins even though
// the other one completes first, and the analysis report and the trace
// metrics agree on it.
func TestCriticalChainTieBreak(t *testing.T) {
	topo := topology.NewClique(4)
	in := tm.NewInstance(topo.Graph(), graph.FuncMetric(topo.Dist), 2, []tm.Txn{
		{Node: 1, Objects: []tm.ObjectID{0}},
		{Node: 2, Objects: []tm.ObjectID{0}},
		{Node: 3, Objects: []tm.ObjectID{1}},
		{Node: 0, Objects: []tm.ObjectID{1}},
	}, []graph.NodeID{0, 3})
	// Object 0: T0@2 → T1@3 (tight). Object 1: T2@1 → T3@2 (tight).
	s := &schedule.Schedule{Times: []int64{2, 3, 1, 2}}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	rep := Analyze(in, s)
	if len(rep.CriticalChain) != 2 || rep.CriticalChain[0] != 0 || rep.CriticalChain[1] != 1 {
		t.Fatalf("chain = %v, want [0 1] (smaller tail ID on a length tie)", rep.CriticalChain)
	}
	m, _, _ := Derive(in, s)
	if len(m.CriticalPath) != len(rep.CriticalChain) {
		t.Fatalf("Derive critical path %v != Analyze chain %v", m.CriticalPath, rep.CriticalChain)
	}
	for i, id := range rep.CriticalChain {
		if m.CriticalPath[i] != int(id) {
			t.Fatalf("Derive critical path %v != Analyze chain %v", m.CriticalPath, rep.CriticalChain)
		}
	}
}
