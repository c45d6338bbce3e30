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

// guardTxns is the allocation guards' stream length.
const guardTxns = 20000

// grid16Stream is the allocation guards' serving config: a
// pre-generated guardTxns-transaction stream on grid16 (w = 64, k = 2,
// rate 1, VerifyFast, PipelineDepth 2, metrics collector on).
func grid16Stream(t *testing.T) Config {
	topo := topology.NewSquareGrid(16)
	g := topo.Graph()
	gen, err := MakeGenerator(xrand.NewDerived(5, "allocs", "gen"), g, tm.UniformK(64, 2), 1, guardTxns)
	if err != nil {
		t.Fatal(err)
	}
	items := make(sliceSource, 0, guardTxns)
	for it, ok := gen.Next(); ok; it, ok = gen.Next() {
		items = append(items, it)
	}
	home := make([]graph.NodeID, 64)
	hr := xrand.NewDerived(5, "allocs", "homes")
	for o := range home {
		home[o] = g.Nodes()[hr.Intn(g.NumNodes())]
	}
	return Config{
		G: g, Metric: graph.FuncMetric(topo.Dist), NumObjects: 64, Home: home,
		Source: items.source(), Verify: engine.VerifyFast, PipelineDepth: 2,
		Collector: obs.NewMetricsCollector(),
	}
}

// mallocsPerTxn serves cfg and returns its mallocs per committed
// transaction, failing unless all guardTxns commit.
func mallocsPerTxn(t *testing.T, cfg Config) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := Serve(context.Background(), cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != guardTxns {
		t.Fatalf("committed %d of %d transactions", res.Committed, guardTxns)
	}
	per := float64(m1.Mallocs-m0.Mallocs) / float64(res.Committed)
	t.Logf("%.2f mallocs per committed transaction over %d windows", per, res.Windows)
	return per
}

// TestServeAllocsPerTxn guards the serving loop's heap traffic: the
// grid16 stream must cost at most 1.0 malloc per committed transaction.
// The per-window work (shadow instance, conflict graph, schedule, engine
// job) spreads over ~56 transactions, so only a per-transaction
// allocation can break the bound.
func TestServeAllocsPerTxn(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	if per := mallocsPerTxn(t, grid16Stream(t)); per > 1.0 {
		t.Fatalf("%.2f mallocs per committed transaction, want ≤ 1.0", per)
	}
}

// TestServeChaosAllocsPerTxn guards the same stream under a chaos 0.1
// plan (built before measuring, sized as dtmsched serve sizes it): each
// window's faulty replay reads its itineraries from one handoff CSR and
// runs no second Definition 1 check, so the stream must cost at most 1.3
// mallocs per committed transaction.
func TestServeChaosAllocsPerTxn(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	cfg := grid16Stream(t)
	plan, err := NewChaos(ChaosConfig{Rate: 0.1, Seed: 5, Horizon: 2 * guardTxns, Chunk: int64(cfg.G.NumNodes())}, cfg.G)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	if per := mallocsPerTxn(t, cfg); per > 1.3 {
		t.Fatalf("%.2f mallocs per committed transaction, want ≤ 1.3", per)
	}
}
