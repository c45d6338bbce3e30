package windows

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/sim"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

func sequenceOn(t testing.TB, count int, seed int64) *Sequence {
	t.Helper()
	topo := topology.NewClique(24)
	seq, err := Generate(xrand.New(seed), topo.Graph(), graph.FuncMetric(topo.Dist), tm.UniformK(8, 2), count, tm.PlaceAtRandomUser)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestBarrierAndPipelinedComplete(t *testing.T) {
	seq := sequenceOn(t, 4, 1)
	bar, err := Run(seq, false)
	if err != nil {
		t.Fatal(err)
	}
	pip, err := Run(seq, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(bar.PerWindow) != 4 || len(pip.PerWindow) != 4 {
		t.Fatal("missing windows")
	}
	if bar.Mode != "barrier" || pip.Mode != "pipelined" {
		t.Fatal("modes wrong")
	}
	// Pipelining can only help.
	if pip.Makespan > bar.Makespan {
		t.Fatalf("pipelined %d slower than barrier %d", pip.Makespan, bar.Makespan)
	}
	// Window ends are non-decreasing in both modes.
	for i := 1; i < 4; i++ {
		if bar.WindowEnd[i] < bar.WindowEnd[i-1] {
			t.Fatal("barrier window ends decreasing")
		}
	}
}

func TestCrossWindowChainsRespected(t *testing.T) {
	// Flatten the sequence into one instance (a node hosts one
	// transaction per window) and replay it through the step-by-step
	// simulator: every handoff, across window boundaries too, must be
	// physically realizable, independent of the scheduler and checker.
	seq := sequenceOn(t, 3, 2)
	for _, pipelined := range []bool{false, true} {
		res, err := Run(seq, pipelined)
		if err != nil {
			t.Fatal(err)
		}
		var txns []tm.Txn
		flat := &schedule.Schedule{}
		for wi, in := range seq.Windows {
			for _, txn := range in.Txns {
				txns = append(txns, tm.Txn{Node: txn.Node, Objects: txn.Objects})
			}
			flat.Times = append(flat.Times, res.PerWindow[wi].Times...)
		}
		in := tm.NewInstance(seq.G, seq.Metric, seq.NumObjects, txns, seq.Home)
		if _, err := sim.Run(in, flat, sim.Options{}); err != nil {
			t.Fatalf("pipelined=%v: %v", pipelined, err)
		}
	}
}

func TestChainCheckerAcceptsBothModes(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		seq := sequenceOn(t, 5, 11)
		res, err := Run(seq, pipelined)
		if err != nil {
			t.Fatalf("pipelined=%v: %v", pipelined, err)
		}
		c := schedule.NewChainChecker(seq.Home)
		for wi, in := range seq.Windows {
			if err := c.Check(in, res.PerWindow[wi]); err != nil {
				t.Fatalf("pipelined=%v: feasible window %d rejected: %v", pipelined, wi, err)
			}
		}
	}
}

func TestSingleWindowModes(t *testing.T) {
	// With one window the barrier is irrelevant; pipelined mode reduces
	// to plain list scheduling in coloring order, which can only beat
	// the one-shift coloring schedule.
	seq := sequenceOn(t, 1, 3)
	bar, err := Run(seq, false)
	if err != nil {
		t.Fatal(err)
	}
	pip, err := Run(seq, true)
	if err != nil {
		t.Fatal(err)
	}
	if pip.Makespan > bar.Makespan {
		t.Fatalf("single-window pipelined %d slower than barrier %d", pip.Makespan, bar.Makespan)
	}
}

func TestGenerateErrors(t *testing.T) {
	topo := topology.NewClique(4)
	if _, err := Generate(xrand.New(1), topo.Graph(), nil, tm.UniformK(2, 1), 0, tm.PlaceAtRandomUser); err == nil {
		t.Fatal("count 0 accepted")
	}
}

func TestPipelinedNeverSlowerProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		topo := topology.NewSquareGrid(4 + r.Intn(4))
		w := 2 + r.Intn(6)
		k := 1 + r.Intn(minInt(w, 3))
		count := 2 + r.Intn(4)
		seq, err := Generate(r, topo.Graph(), graph.FuncMetric(topo.Dist), tm.UniformK(w, k), count, tm.PlaceAtRandomUser)
		if err != nil {
			return false
		}
		bar, err := Run(seq, false)
		if err != nil {
			return false
		}
		pip, err := Run(seq, true)
		if err != nil {
			return false
		}
		return pip.Makespan <= bar.Makespan
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
