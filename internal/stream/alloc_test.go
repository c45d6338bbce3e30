package stream

import (
	"context"
	"runtime"
	"testing"

	"dtmsched/internal/engine"
	"dtmsched/internal/graph"
	"dtmsched/internal/obs"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestServeAllocsPerTxn guards the serving loop's heap traffic: a
// pre-generated 20k-transaction stream on grid16 (w = 64, k = 2, rate 1,
// VerifyFast, PipelineDepth 2, metrics collector on) must cost at most
// 1.0 malloc per committed transaction. The per-window work (shadow
// instance, conflict graph, schedule, engine job) spreads over ~56
// transactions, so only a per-transaction allocation can break the
// bound.
func TestServeAllocsPerTxn(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const txns = 20000
	topo := topology.NewSquareGrid(16)
	g := topo.Graph()
	gen, err := MakeGenerator(xrand.NewDerived(5, "allocs", "gen"), g, tm.UniformK(64, 2), 1, txns)
	if err != nil {
		t.Fatal(err)
	}
	items := make(sliceSource, 0, txns)
	for it, ok := gen.Next(); ok; it, ok = gen.Next() {
		items = append(items, it)
	}
	home := make([]graph.NodeID, 64)
	hr := xrand.NewDerived(5, "allocs", "homes")
	for o := range home {
		home[o] = g.Nodes()[hr.Intn(g.NumNodes())]
	}
	cfg := Config{
		G: g, Metric: graph.FuncMetric(topo.Dist), NumObjects: 64, Home: home,
		Source: items.source(), Verify: engine.VerifyFast, PipelineDepth: 2,
		Collector: obs.NewMetricsCollector(),
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := Serve(context.Background(), cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != txns {
		t.Fatalf("committed %d of %d transactions", res.Committed, txns)
	}
	if per := float64(m1.Mallocs-m0.Mallocs) / float64(res.Committed); per > 1.0 {
		t.Fatalf("%.2f mallocs per committed transaction, want ≤ 1.0", per)
	} else {
		t.Logf("%.2f mallocs per committed transaction over %d windows", per, res.Windows)
	}
}
