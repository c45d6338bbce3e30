package dtmsched_test

// One benchmark per experiment (E1–E11, the reproduction's tables), plus
// micro-benchmarks of the load-bearing primitives (dependency-graph
// coloring, the schedulers themselves, the simulator, shortest paths).
//
// The experiment benchmarks run their full quick-mode sweep per iteration,
// so ns/op is "time to regenerate the table". Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"testing"

	dtm "dtmsched"
	"dtmsched/internal/baseline"
	"dtmsched/internal/core"
	"dtmsched/internal/depgraph"
	"dtmsched/internal/experiments"
	"dtmsched/internal/graph"
	"dtmsched/internal/lower"
	"dtmsched/internal/sim"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := experiments.DefaultConfig()
	cfg.Quick = true
	cfg.Trials = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if failed := res.Failed(); len(failed) > 0 {
			b.Fatalf("%s: %d shape checks failed: %+v", id, len(failed), failed[0])
		}
	}
}

// BenchmarkE1Clique regenerates Theorem 1's table (clique, O(k)).
func BenchmarkE1Clique(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2Hypercube regenerates the Section 3.1 hypercube table.
func BenchmarkE2Hypercube(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3Butterfly regenerates the Section 3.1 butterfly table.
func BenchmarkE3Butterfly(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4Line regenerates Theorem 2's table (line, ≤ 4ℓ−2).
func BenchmarkE4Line(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Grid regenerates Theorem 3's table (grid, O(k log m)).
func BenchmarkE5Grid(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6Cluster regenerates Theorem 4's table (cluster approaches).
func BenchmarkE6Cluster(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7Star regenerates Theorem 5's table (star segments).
func BenchmarkE7Star(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8LBGrid regenerates the Theorem 6 / Corollary 3 grid table.
func BenchmarkE8LBGrid(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9LBTree regenerates the Section 8.2 tree table.
func BenchmarkE9LBTree(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Baselines regenerates the scheduler-vs-baselines table.
func BenchmarkE10Baselines(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11TileSize regenerates the grid tile-size ablation.
func BenchmarkE11TileSize(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12Online regenerates the online-scheduling extension table.
func BenchmarkE12Online(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13Congestion regenerates the bounded-capacity extension table.
func BenchmarkE13Congestion(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14Replication regenerates the replication extension table.
func BenchmarkE14Replication(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15ExactGroundTruth regenerates the greedy-vs-optimal table.
func BenchmarkE15ExactGroundTruth(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16ColoringOrder regenerates the coloring-order ablation.
func BenchmarkE16ColoringOrder(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkE17Asynchrony regenerates the synchronicity-factor table.
func BenchmarkE17Asynchrony(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkE18Tradeoff regenerates the time-vs-communication frontier.
func BenchmarkE18Tradeoff(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkE19MultiWindow regenerates the barrier-vs-pipelined table.
func BenchmarkE19MultiWindow(b *testing.B) { benchExperiment(b, "E19") }

// —— micro-benchmarks ————————————————————————————————————————————————

func cliqueInstance(n, w, k int) *tm.Instance {
	topo := topology.NewClique(n)
	return tm.UniformK(w, k).Generate(xrand.New(1), topo.Graph(),
		graph.FuncMetric(topo.Dist), topo.Graph().Nodes(), tm.PlaceAtRandomUser)
}

// cliqueMetricInstance builds an n-transaction instance on a sparse path
// graph with a unit ("clique") metric, so build benchmarks scale to 10k
// transactions without materializing a clique's O(n²) topology edges.
func cliqueMetricInstance(n, w, k int) *tm.Instance {
	g := graph.New(n)
	for i := 0; i < n-1; i++ {
		g.AddUnitEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	metric := graph.FuncMetric(func(u, v graph.NodeID) int64 {
		if u == v {
			return 0
		}
		return 1
	})
	return tm.UniformK(w, k).Generate(xrand.New(1), g, metric, g.Nodes(), tm.PlaceAtRandomUser)
}

// BenchmarkDepGraphBuild measures the conflict-graph work at 1k and 10k
// transactions: the map-of-maps reference H (BuildReference), the summary
// pass the offline schedulers run, and the ranks pass in node order, which
// is all a serving window needs. Neighbourhoods are sparse (~14 out of n),
// as in every scheduler's member lists.
func BenchmarkDepGraphBuild(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		in := cliqueMetricInstance(n, n/4, 2)
		in.Index() // warm the shared conflict index: benchmark the passes, not indexing
		b.Run(fmt.Sprintf("n=%d/mapref", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				depgraph.BuildReference(in, nil)
			}
		})
		b.Run(fmt.Sprintf("n=%d/summary", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				depgraph.New(in, nil, in.Index()).Summarize()
			}
		})
		b.Run(fmt.Sprintf("n=%d/ranks", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := depgraph.New(in, nil, in.Index())
				h.Ranks(h.OrderByNode())
			}
		})
	}
}

func BenchmarkGreedySchedulerClique(b *testing.B) {
	for _, n := range []int{128, 512} {
		in := cliqueInstance(n, n/4, 2)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (&core.Greedy{}).Schedule(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGridScheduler(b *testing.B) {
	for _, side := range []int{16, 32} {
		topo := topology.NewSquareGrid(side)
		in := tm.UniformK(4*side, 2).Generate(xrand.New(1), topo.Graph(),
			graph.FuncMetric(topo.Dist), topo.Graph().Nodes(), tm.PlaceAtRandomUser)
		b.Run(fmt.Sprintf("side=%d", side), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (&core.Grid{Topo: topo}).Schedule(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkClusterApproach2(b *testing.B) {
	topo := topology.NewCluster(8, 16, 32)
	in := tm.UniformK(32, 2).Generate(xrand.New(1), topo.Graph(),
		graph.FuncMetric(topo.Dist), topo.Graph().Nodes(), tm.PlaceAtRandomUser)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cs := &core.Cluster{Topo: topo, Rng: xrand.New(int64(i)), Approach: core.ClusterApproach2}
		if _, err := cs.Schedule(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulator(b *testing.B) {
	in := cliqueInstance(512, 128, 2)
	res, err := (&core.Greedy{}).Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(in, res.Schedule, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLowerBound(b *testing.B) {
	in := cliqueInstance(256, 64, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lower.Compute(in)
	}
}

// BenchmarkLowerCompute compares the certified-bound cost tiers on one
// instance: the witness computation (every walk and tour), the value
// path (closed forms, brackets, pruned Held–Karp), and a warm oracle hit
// (the steady state of batch sweeps, where jobs sharing an instance pay a
// pointer load). The clique instance has ~8 users per object, so
// value-bounded adds a 16×16 grid instance whose 8 objects each have ~64
// sites, above tsp.ExactLimit: the value path's MST-only case.
func BenchmarkLowerCompute(b *testing.B) {
	in := cliqueInstance(256, 64, 2)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lower.Compute(in)
		}
	})
	b.Run("value", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lower.Value(in)
		}
	})
	b.Run("value-bounded", func(b *testing.B) {
		topo := topology.NewSquareGrid(16)
		in := tm.UniformK(8, 2).Generate(xrand.New(1), topo.Graph(),
			graph.FuncMetric(topo.Dist), topo.Graph().Nodes(), tm.PlaceAtRandomUser)
		if lower.Value(in).BoundedObjects == 0 {
			b.Fatal("no object above tsp.ExactLimit")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lower.Value(in)
		}
	})
	b.Run("oracle-warm", func(b *testing.B) {
		o := lower.NewOracle()
		o.Get(in)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Get(in)
		}
	})
}

func BenchmarkBaselineList(b *testing.B) {
	in := cliqueInstance(512, 128, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (baseline.List{}).Schedule(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShortestPathsGrid(b *testing.B) {
	topo := topology.NewSquareGrid(64)
	g := topo.Graph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.ShortestPaths(graph.NodeID(i % g.NumNodes()))
	}
}

func BenchmarkFacadeEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := dtm.NewCliqueSystem(128, dtm.Uniform(32, 2), dtm.Seed(int64(i)))
		if _, err := sys.Run(dtm.AlgGreedy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginePipeline runs the full engine pipeline under each verify
// policy, reporting the simulator work the VerifyFull path performs
// (simsteps/op, objmoves/op) so regressions in verification cost are
// visible next to the wall-clock difference between policies.
func BenchmarkEnginePipeline(b *testing.B) {
	for _, mode := range []dtm.VerifyMode{dtm.VerifyFull, dtm.VerifyFast, dtm.VerifyOff} {
		sys := dtm.NewCliqueSystem(256, dtm.Uniform(64, 2), dtm.Seed(1))
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			var steps, moves int64
			for i := 0; i < b.N; i++ {
				rep, err := sys.RunContext(context.Background(), dtm.AlgGreedy, mode)
				if err != nil {
					b.Fatal(err)
				}
				steps += rep.Counters.SimSteps
				moves += rep.Counters.ObjectMoves
			}
			b.ReportMetric(float64(steps)/float64(b.N), "simsteps/op")
			b.ReportMetric(float64(moves)/float64(b.N), "objmoves/op")
		})
	}
}

// BenchmarkRunBatch measures batch throughput across worker counts: the
// same 16-job multi-algorithm comparison fanned over 1, 4, and 8 workers.
func BenchmarkRunBatch(b *testing.B) {
	sys := dtm.NewCliqueSystem(128, dtm.Uniform(32, 2), dtm.Seed(2))
	algs := []dtm.Algorithm{dtm.AlgGreedy, dtm.AlgSequential, dtm.AlgList, dtm.AlgRandomOrder}
	jobs := make([]dtm.BatchJob, 0, 16)
	for rep := 0; rep < 4; rep++ {
		for _, alg := range algs {
			jobs = append(jobs, dtm.BatchJob{Name: fmt.Sprintf("%s/%d", alg, rep), System: sys, Alg: alg})
		}
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, err := dtm.RunBatch(context.Background(), jobs, dtm.BatchOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
