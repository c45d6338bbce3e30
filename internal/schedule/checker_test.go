package schedule_test

import (
	"strings"
	"testing"

	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/windows"
	"dtmsched/internal/xrand"
)

// pipelinedRun generates a seeded multi-window sequence on a 24-clique and
// schedules it in pipelined mode.
func pipelinedRun(t *testing.T, count int, seed int64) (*windows.Sequence, *windows.Result) {
	t.Helper()
	topo := topology.NewClique(24)
	seq, err := windows.Generate(xrand.New(seed), topo.Graph(), graph.FuncMetric(topo.Dist), tm.UniformK(8, 2), count, tm.PlaceAtRandomUser)
	if err != nil {
		t.Fatal(err)
	}
	res, err := windows.Run(seq, true)
	if err != nil {
		t.Fatal(err)
	}
	return seq, res
}

// replay feeds every window of a run through a fresh checker.
func replay(seq *windows.Sequence, res *windows.Result) error {
	c := schedule.NewChainChecker(seq.Home)
	for wi, in := range seq.Windows {
		if err := c.Check(in, res.PerWindow[wi]); err != nil {
			return err
		}
	}
	return nil
}

func TestChainCheckerRejectsCorruption(t *testing.T) {
	corrupt := func(mutate func(res *windows.Result)) error {
		seq, fresh := pipelinedRun(t, 4, 12)
		mutate(fresh)
		return replay(seq, fresh)
	}

	// Pulling a later window's transaction to step 1 breaks its objects'
	// handoff chains (or its node's commit ordering).
	if err := corrupt(func(r *windows.Result) { r.PerWindow[2].Times[0] = 1 }); err == nil {
		t.Fatal("handoff corruption accepted")
	}
	// Cloning one window's times into the next forces node reuse at
	// equal steps (every node hosts one transaction per window).
	if err := corrupt(func(r *windows.Result) { copy(r.PerWindow[1].Times, r.PerWindow[0].Times) }); err == nil {
		t.Fatal("node-reuse corruption accepted")
	}
	// Zero times are rejected outright.
	if err := corrupt(func(r *windows.Result) { r.PerWindow[3].Times[5] = 0 }); err == nil {
		t.Fatal("zero time accepted")
	}
}

func TestChainCheckerRejectsSharedObjectTie(t *testing.T) {
	// Two transactions sharing the single object at the same step: the
	// object would need to be at two nodes at once.
	topo := topology.NewClique(4)
	g := topo.Graph()
	txns := []tm.Txn{
		{Node: g.Nodes()[0], Objects: []tm.ObjectID{0}},
		{Node: g.Nodes()[1], Objects: []tm.ObjectID{0}},
	}
	in := tm.NewInstance(g, graph.FuncMetric(topo.Dist), 1, txns, []graph.NodeID{g.Nodes()[0]})
	c := schedule.NewChainChecker(in.Home)
	err := c.Check(in, &schedule.Schedule{Times: []int64{2, 2}})
	if err == nil || !strings.Contains(err.Error(), "both at step") {
		t.Fatalf("tie on shared object not rejected: %v", err)
	}
}

func TestChainCheckerMismatchedShapes(t *testing.T) {
	seq, res := pipelinedRun(t, 1, 13)
	// Wrong object-space width.
	c := schedule.NewChainChecker(seq.Home[:len(seq.Home)-1])
	if err := c.Check(seq.Windows[0], res.PerWindow[0]); err == nil {
		t.Fatal("object-count mismatch accepted")
	}
	// Wrong transaction count.
	c = schedule.NewChainChecker(seq.Home)
	short := res.PerWindow[0].Clone()
	short.Times = short.Times[:len(short.Times)-1]
	if err := c.Check(seq.Windows[0], short); err == nil {
		t.Fatal("times-length mismatch accepted")
	}
}

func TestChainCheckerRejectsNodeOutOfRange(t *testing.T) {
	topo := topology.NewClique(4)
	g := topo.Graph()
	for _, node := range []graph.NodeID{-1, 4} {
		txns := []tm.Txn{{Node: node, Objects: []tm.ObjectID{0}}}
		in := tm.NewInstance(g, graph.FuncMetric(topo.Dist), 1, txns, []graph.NodeID{0})
		err := schedule.NewChainChecker(in.Home).Check(in, &schedule.Schedule{Times: []int64{5}})
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("node %d: got %v, want an out-of-range error", node, err)
		}
	}
}
