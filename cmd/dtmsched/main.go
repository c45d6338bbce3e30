// Command dtmsched schedules one batch of transactions on a chosen
// topology and reports makespan, certified lower bound, approximation
// ratio, and communication cost.
//
// Usage examples:
//
//	dtmsched -topo clique -n 128 -w 32 -k 2 -alg greedy
//	dtmsched -topo cluster -alpha 8 -beta 16 -gamma 32 -alg cluster
//	dtmsched -topo grid -side 32 -w 128 -k 4 -alg auto -trials 5
//	dtmsched -topo star -alg star -analyze -trace
//	dtmsched -topo grid -save inst.json          # persist the instance
//	dtmsched -load inst.json -alg greedy         # schedule a saved one
//
// The trace subcommand runs one instance with an observability collector
// attached and renders the run's timeline (per-object transit / queue /
// use lanes) as text; -out and -chrome export the structured JSONL and
// Chrome trace-event files:
//
//	dtmsched trace -topo grid -side 8 -w 16 -alg auto
//	dtmsched trace -topo star -alpha 4 -beta 8 -out run.jsonl -chrome run.chrome.json
//
// The bench subcommand family gates regressions between run ledgers
// recorded by `dtmbench -ledger` (see bench.go):
//
//	dtmsched bench compare base.jsonl head.jsonl
//	dtmsched bench gate base.jsonl head.jsonl   # exit 1 on regression
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	dtm "dtmsched"
	"dtmsched/internal/analysis"
	"dtmsched/internal/asciiviz"
	"dtmsched/internal/baseline"
	"dtmsched/internal/cliutil"
	"dtmsched/internal/core"
	"dtmsched/internal/engine"
	"dtmsched/internal/graph"
	"dtmsched/internal/hier"
	"dtmsched/internal/obs"
	"dtmsched/internal/persist"
	"dtmsched/internal/schedule"
	"dtmsched/internal/sim"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		if err := runTraceCmd(os.Args[2:]); err != nil {
			fatalf("trace: %v", err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		os.Exit(runBenchCmd(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServeCmd(os.Args[2:]); err != nil {
			fatalf("serve: %v", err)
		}
		return
	}
	tf := cliutil.RegisterTopoFlags(flag.CommandLine, cliutil.TopoFlags{
		Name: "clique", N: 128, Side: 16, Dim: 7, Alpha: 8, Beta: 16, Gamma: 32,
		Fanout: "4,8", LinkW: "8,1",
	})
	wf := cliutil.RegisterWorkloadFlags(flag.CommandLine, cliutil.WorkloadFlags{
		Name: "uniform", W: 32, K: 2, Locality: 0.9,
	})
	var (
		alg          = flag.String("alg", "auto", "algorithm (see -list)")
		hiertier     = flag.Int("hiertier", 0, "fogcloud: shard tier for the hierarchical scheduler (0 = fog tier)")
		shardworkers = flag.Int("shardworkers", 0, "fogcloud: hierarchical shard workers (0 = GOMAXPROCS; schedule identical at every count)")
		seed         = flag.Int64("seed", 0, "root seed (0 = library default)")
		trials       = flag.Int("trials", 1, "independent instances to schedule")
		list         = flag.Bool("list", false, "list available algorithms and exit")
		analyze      = flag.Bool("analyze", false, "print the schedule analysis (parallelism, critical chain, hot objects)")
		trace        = flag.Bool("trace", false, "print the simulator's event trace (small instances)")
		savePath     = flag.String("save", "", "write the generated instance to a JSON file and exit")
		loadPath     = flag.String("load", "", "schedule an instance loaded from a JSON file instead of generating one")
	)
	flag.Parse()
	if *trials < 1 {
		fatalf("-trials must be at least 1 (got %d)", *trials)
	}

	if *list {
		for _, a := range dtm.Algorithms() {
			fmt.Println(a)
		}
		return
	}

	if *loadPath != "" {
		if err := runLoaded(*loadPath, *alg, *analyze, *trace, *seed); err != nil {
			fatalf("%v", err)
		}
		return
	}

	// The localized workload shards objects by fog subtree, so workload
	// resolution needs the topology; the System constructors below rebuild
	// the same (deterministic) topology from the same flags.
	topo, err := tf.Build()
	if err != nil {
		fatalf("%v", err)
	}
	twl, err := wf.Build(topo)
	if err != nil {
		fatalf("%v", err)
	}
	wl := dtm.WrapWorkload(twl)

	for trial := 0; trial < *trials; trial++ {
		var opts []dtm.Option
		if *seed != 0 {
			opts = append(opts, dtm.Seed(*seed+int64(trial)))
		} else if trial > 0 {
			opts = append(opts, dtm.Seed(int64(1000+trial)))
		}
		var sys *dtm.System
		switch tf.Name {
		case "clique":
			sys = dtm.NewCliqueSystem(tf.N, wl, opts...)
		case "line":
			sys = dtm.NewLineSystem(tf.N, wl, opts...)
		case "grid":
			sys = dtm.NewGridSystem(tf.Side, wl, opts...)
		case "torus":
			sys = dtm.NewTorusSystem(tf.Side, tf.Side, wl, opts...)
		case "hypercube":
			sys = dtm.NewHypercubeSystem(tf.Dim, wl, opts...)
		case "butterfly":
			sys = dtm.NewButterflySystem(tf.Dim, wl, opts...)
		case "cluster":
			sys = dtm.NewClusterSystem(tf.Alpha, tf.Beta, tf.Gamma, wl, opts...)
		case "star":
			sys = dtm.NewStarSystem(tf.Alpha, tf.Beta, wl, opts...)
		case "fogcloud":
			fanout, weights, err := cliutil.ParseFogCloudShape(tf.Fanout, tf.LinkW)
			if err != nil {
				fatalf("%v", err)
			}
			opts = append(opts, dtm.HierTier(*hiertier), dtm.HierShardWorkers(*shardworkers))
			sys = dtm.NewFogCloudSystem(fanout, weights, wl, opts...)
		default:
			fatalf("unknown topology %q (want %s)", tf.Name, cliutil.TopoNames)
		}
		if *savePath != "" {
			if err := persist.SaveInstance(*savePath, sys.Instance()); err != nil {
				fatalf("save: %v", err)
			}
			fmt.Printf("saved %s instance (%d txns, %d objects) to %s\n",
				sys.Topology(), sys.NumTxns(), sys.NumObjects(), *savePath)
			return
		}
		rep, err := sys.Run(dtm.Algorithm(*alg))
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(rep)
		if len(rep.Stats) > 0 {
			fmt.Printf("  stats: %v\n", rep.Stats)
		}
		if err := extras(sys.Instance(), rep.Schedule, *analyze, *trace); err != nil {
			fatalf("%v", err)
		}
	}
}

// runTraceCmd implements `dtmsched trace`: schedule one instance through
// the engine with a tracing collector attached, render the run's timeline
// and schedule metrics, and optionally export the JSONL / Chrome trace and
// the metrics snapshot.
func runTraceCmd(args []string) error {
	fs := flag.NewFlagSet("dtmsched trace", flag.ExitOnError)
	tf := cliutil.RegisterTopoFlags(fs, cliutil.TopoFlags{
		Name: "grid", N: 64, Side: 8, Dim: 5, Alpha: 4, Beta: 8, Gamma: 16,
		Fanout: "4,8", LinkW: "8,1",
	})
	wf := cliutil.RegisterWorkloadFlags(fs, cliutil.WorkloadFlags{Name: "uniform", W: 16, K: 2, Locality: 0.9})
	var (
		alg          = fs.String("alg", "auto", "algorithm: auto (paper scheduler for the topology)|greedy|greedy-degree|sequential|list|random")
		hiertier     = fs.Int("hiertier", 0, "fogcloud: shard tier for the hierarchical scheduler (0 = fog tier)")
		shardworkers = fs.Int("shardworkers", 0, "fogcloud: hierarchical shard workers (0 = GOMAXPROCS)")
		seed         = fs.Int64("seed", 0, "root seed (0 = library default)")
		out          = fs.String("out", "", "write the structured JSONL trace to FILE")
		chrome       = fs.String("chrome", "", "write a Chrome trace-event file (Perfetto / chrome://tracing) to FILE")
		metrics      = fs.String("metrics", "", "write the metrics snapshot (JSON) to FILE")
		width        = fs.Int64("width", 200, "max timeline width in steps before the text rendering is skipped")
		objects      = fs.Int("objects", 40, "max object lanes in the text timeline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rootSeed := *seed
	if rootSeed == 0 {
		rootSeed = xrand.DefaultSeed
	}

	topo, err := tf.Build()
	if err != nil {
		return err
	}
	wl, err := wf.Build(topo)
	if err != nil {
		return err
	}
	g := topo.Graph()
	in := wl.Generate(xrand.NewDerived(rootSeed, "trace", tf.Name), g, graph.FuncMetric(topo.Dist), g.Nodes(), tm.PlaceAtRandomUser)

	sched, err := traceScheduler(*alg, topo, rootSeed)
	if err != nil {
		return err
	}
	if hs, ok := sched.(*hier.Scheduler); ok {
		hs.Tier, hs.Workers = *hiertier, *shardworkers
	}

	col := obs.NewCollector()
	rep, err := engine.Run(context.Background(), engine.Job{
		Name: "trace/" + tf.Name, Instance: in, Scheduler: sched, Collector: col,
	})
	if err != nil {
		return err
	}

	fmt.Printf("%-20s on %-10s makespan=%-7d lb=%-6d ratio=%.2f comm=%d\n",
		rep.Algorithm, tf.Name, rep.Makespan, rep.Bound.Value, rep.Ratio, rep.CommCost)
	fmt.Println()
	fmt.Print(asciiviz.Timeline(in, rep.Schedule, *objects, *width))

	sm, _, _ := analysis.Derive(in, rep.Schedule)
	fmt.Printf("\ntxn latency (steps): p50=%d p90=%d p99=%d max=%d\n",
		sm.TxnLatencyP50, sm.TxnLatencyP90, sm.TxnLatencyP99, sm.TxnLatencyMax)
	fmt.Printf("object travel total=%d steps; critical path %d txns: %v\n",
		sm.TotalTravel, len(sm.CriticalPath), sm.CriticalPath)
	if len(sm.PeakQueueDepth) > 0 {
		fmt.Printf("hottest nodes by peak queue depth:")
		for i, nd := range sm.PeakQueueDepth {
			if i == 4 {
				break
			}
			fmt.Printf(" node%d=%d", nd.Node, nd.Peak)
		}
		fmt.Println()
	}

	for _, f := range []struct {
		path  string
		write func(io.Writer) error
	}{{*out, col.WriteJSONL}, {*chrome, col.WriteChromeTrace}, {*metrics, col.WriteMetrics}} {
		if f.path == "" {
			continue
		}
		file, err := os.Create(f.path)
		if err != nil {
			return err
		}
		if err := f.write(file); err != nil {
			file.Close()
			return err
		}
		if err := file.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", f.path)
	}
	return nil
}

// traceScheduler resolves the trace subcommand's algorithm: "auto" picks
// the paper's scheduler for the topology (mirroring the facade), other
// names resolve through the topology-free table.
func traceScheduler(alg string, topo topology.Topology, seed int64) (core.Scheduler, error) {
	if alg == "auto" {
		switch t := topo.(type) {
		case *topology.Line:
			return &core.Line{Topo: t}, nil
		case *topology.Grid:
			return &core.Grid{Topo: t}, nil
		case *topology.ClusterGraph:
			return &core.Cluster{Topo: t, Rng: xrand.NewDerived(seed, "trace", "cluster")}, nil
		case *topology.Star:
			return &core.Star{Topo: t, Rng: xrand.NewDerived(seed, "trace", "star")}, nil
		case *topology.FogCloud:
			return &hier.Scheduler{Topo: t}, nil
		default:
			return &core.Greedy{}, nil
		}
	}
	return genericScheduler(alg, seed)
}

// runLoaded schedules a persisted instance with an internal scheduler
// chosen by name (topology-specific algorithms need their generator, so
// only topology-free ones are available here).
func runLoaded(path, alg string, analyze, trace bool, seed int64) error {
	in, err := persist.LoadInstance(path)
	if err != nil {
		return err
	}
	sched, err := genericScheduler(alg, seed)
	if err != nil {
		return err
	}
	rep, err := engine.Run(context.Background(), engine.Job{Name: path, Instance: in, Scheduler: sched})
	if err != nil {
		return err
	}
	fmt.Printf("%-20s on %-10s makespan=%-7d lb=%-6d ratio=%.2f comm=%d\n",
		rep.Algorithm, in.G.Name(), rep.Makespan, rep.Bound.Value, rep.Ratio, rep.CommCost)
	return extras(in, rep.Schedule, analyze, trace)
}

// extras prints the analysis and the simulator's event trace of the
// reported schedule s, as requested.
func extras(in *tm.Instance, s *schedule.Schedule, analyze, trace bool) error {
	if analyze {
		fmt.Print(analysis.Analyze(in, s))
	}
	if !trace {
		return nil
	}
	simRes, err := sim.Run(in, s, sim.Options{Trace: true})
	if err != nil {
		return err
	}
	limit := min(len(simRes.Events), 200)
	for _, e := range simRes.Events[:limit] {
		fmt.Println(" ", e)
	}
	if len(simRes.Events) > limit {
		fmt.Printf("  … %d more events\n", len(simRes.Events)-limit)
	}
	return nil
}

// genericScheduler resolves topology-independent algorithms by name.
func genericScheduler(alg string, seed int64) (core.Scheduler, error) {
	if seed == 0 {
		seed = xrand.DefaultSeed
	}
	switch alg {
	case "auto", "greedy":
		return &core.Greedy{}, nil
	case "greedy-degree":
		return &core.Greedy{Order: core.OrderDegree}, nil
	case "sequential":
		return baseline.Sequential{}, nil
	case "list":
		return baseline.List{}, nil
	case "random":
		return baseline.Random{Rng: xrand.NewDerived(seed, "cli", "random")}, nil
	default:
		return nil, fmt.Errorf("algorithm %q is topology-specific; loaded instances support auto|greedy|greedy-degree|sequential|list|random", alg)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dtmsched: "+format+"\n", args...)
	os.Exit(2)
}
