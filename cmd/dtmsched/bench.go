// The bench subcommand family records reproducible benchmark ledgers
// and judges regressions between them:
//
//	dtmsched bench record  -ledger FILE [-suite quick|smoke] [-trials N] [-seed S] [-workers N]
//	dtmsched bench compare [flags] OLD.jsonl NEW.jsonl
//	dtmsched bench gate    [flags] OLD.jsonl NEW.jsonl
//
// record runs a fixed suite of (topology, workload) cells through the
// engine — the paper's scheduler for each topology, seeds derived per
// trial — and appends one obs.RunRecord per job to the ledger. compare
// groups two ledgers by configuration fingerprint and reports per-metric
// deltas; gate is compare with an exit code: 1 when any metric
// regressed, so CI can chain `record` on two builds and fail the merge.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"dtmsched/internal/engine"
	"dtmsched/internal/graph"
	"dtmsched/internal/obs"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

const benchUsage = `usage:
  dtmsched bench record  -ledger FILE [-suite quick|smoke] [-trials N] [-seed S] [-workers N]
  dtmsched bench compare [-json] [-time-threshold F] [-count-threshold F] [-min-ms F] [-mad-factor F] OLD.jsonl NEW.jsonl
  dtmsched bench gate    [same flags as compare] OLD.jsonl NEW.jsonl   (exit 1 on regression)`

// runBenchCmd dispatches `dtmsched bench record|compare|gate` and
// returns the process exit code.
func runBenchCmd(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, benchUsage)
		return 2
	}
	switch args[0] {
	case "record":
		return benchRecord(args[1:])
	case "compare":
		return benchCompare(args[1:], false)
	case "gate":
		return benchCompare(args[1:], true)
	default:
		fmt.Fprintf(os.Stderr, "dtmsched bench: unknown subcommand %q\n%s\n", args[0], benchUsage)
		return 2
	}
}

// benchCell is one suite entry: a topology under the paper's scheduler
// with a uniform workload sized to it.
type benchCell struct {
	name string
	mk   func() topology.Topology
	w, k int
}

// benchSuite resolves a suite name to its cells; nil for unknown names.
// The quick suite covers every scheduler family of the repo (greedy on
// the clique, the line/grid offline algorithms, the randomized
// star/cluster schedulers, and the hierarchical fog–cloud scheduler);
// smoke is its two-cell prefix for tests.
func benchSuite(name string) []benchCell {
	quick := []benchCell{
		{"clique64", func() topology.Topology { return topology.NewClique(64) }, 32, 2},
		{"grid12", func() topology.Topology { return topology.NewSquareGrid(12) }, 48, 2},
		{"line64", func() topology.Topology { return topology.NewLine(64) }, 32, 2},
		{"star4x8", func() topology.Topology { return topology.NewStar(4, 8) }, 16, 2},
		{"cluster4x8", func() topology.Topology { return topology.NewCluster(4, 8, 16) }, 32, 2},
		{"fogcloud4x8", func() topology.Topology { return topology.NewFogCloud([]int{4, 8}, []int64{8, 1}) }, 32, 2},
	}
	switch name {
	case "quick":
		return quick
	case "smoke":
		return quick[:2]
	}
	return nil
}

// benchRecord implements `dtmsched bench record`: run the suite and
// append one ledger record per engine job via the engine's LedgerHook.
// Job names carry the trial as a "#N" suffix, so all trials of a cell
// share one fingerprint and the comparator pools them.
func benchRecord(args []string) int {
	fs := flag.NewFlagSet("dtmsched bench record", flag.ExitOnError)
	var (
		ledgerPath = fs.String("ledger", "", "append run records to FILE (required)")
		suite      = fs.String("suite", "quick", "benchmark suite: quick (all scheduler families) or smoke (two cells)")
		trials     = fs.Int("trials", 3, "instances per suite cell (independent derived seeds)")
		seed       = fs.Int64("seed", 0, "root seed (0 = library default)")
		workers    = fs.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
	)
	fs.Parse(args)
	if *ledgerPath == "" {
		fmt.Fprintf(os.Stderr, "dtmsched bench record: -ledger is required\n%s\n", benchUsage)
		return 2
	}
	cells := benchSuite(*suite)
	if cells == nil {
		fmt.Fprintf(os.Stderr, "dtmsched bench record: unknown suite %q (want quick or smoke)\n", *suite)
		return 2
	}
	rootSeed := *seed
	if rootSeed == 0 {
		rootSeed = xrand.DefaultSeed
	}

	var jobs []engine.Job
	for _, c := range cells {
		topo := c.mk()
		g := topo.Graph()
		for trial := 0; trial < *trials; trial++ {
			// One scheduler per job: the randomized schedulers hold their
			// own RNG, so sharing one across concurrent trials would race.
			sched, err := traceScheduler("auto", topo, xrand.Derive(rootSeed, "bench", c.name, fmt.Sprint(trial)))
			if err != nil {
				fmt.Fprintf(os.Stderr, "dtmsched bench record: %s: %v\n", c.name, err)
				return 2
			}
			in := tm.UniformK(c.w, c.k).Generate(
				xrand.NewDerived(rootSeed, "bench", c.name, fmt.Sprint(trial)),
				g, graph.FuncMetric(topo.Dist), g.Nodes(), tm.PlaceAtRandomUser)
			jobs = append(jobs, engine.Job{
				Name:      fmt.Sprintf("bench/%s#%d", c.name, trial),
				Instance:  in,
				Scheduler: sched,
			})
		}
	}

	f, err := os.OpenFile(*ledgerPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtmsched bench record: %v\n", err)
		return 2
	}
	ledger := obs.NewLedger(f)
	base := obs.RunRecord{
		Config: map[string]string{
			"suite":  *suite,
			"seed":   fmt.Sprint(rootSeed),
			"trials": fmt.Sprint(*trials),
		},
		Seed: rootSeed,
	}
	// Each job gets its own collector, so its ledger record holds exactly
	// the series that job moved.
	for i := range jobs {
		jobs[i].Collector = obs.NewMetricsCollector()
		jobs[i].Hook = engine.LedgerHook(ledger, base, jobs[i].Collector)
	}

	results, err := engine.RunBatch(context.Background(), jobs, engine.Options{Workers: *workers})
	if err == nil {
		_, err = engine.Reports(results)
	}
	if err == nil {
		err = ledger.Err()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtmsched bench record: %v\n", err)
		return 1
	}
	fmt.Printf("recorded %d run-ledger records to %s (suite %s, %d trials, seed %d)\n",
		len(jobs), *ledgerPath, *suite, *trials, rootSeed)
	return 0
}

// benchCompare implements `dtmsched bench compare` and `... gate`: read
// two ledgers, judge new against old, and render the report. compare
// always exits 0 on a well-formed comparison; gate exits 1 when any
// metric regressed.
func benchCompare(args []string, gate bool) int {
	name := "compare"
	if gate {
		name = "gate"
	}
	fs := flag.NewFlagSet("dtmsched bench "+name, flag.ExitOnError)
	var (
		asJSON  = fs.Bool("json", false, "emit the report as JSON instead of text")
		timeTh  = fs.Float64("time-threshold", 0, "allowed relative increase on wall-time metrics (0 = default 0.30)")
		countTh = fs.Float64("count-threshold", 0, "allowed relative change on deterministic counters (default 0 = exact reproduction)")
		minMS   = fs.Float64("min-ms", 0, "absolute wall-time noise floor in milliseconds (0 = default 1)")
		madF    = fs.Float64("mad-factor", 0, "MAD noise-floor multiplier for wall-time metrics (0 = default 3)")
	)
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) != 2 {
		fmt.Fprintf(os.Stderr, "dtmsched bench %s: want exactly OLD and NEW ledger paths, got %d args\n%s\n",
			name, len(rest), benchUsage)
		return 2
	}
	oldRecs, err := obs.ReadLedgerFile(rest[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtmsched bench %s: %v\n", name, err)
		return 2
	}
	newRecs, err := obs.ReadLedgerFile(rest[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtmsched bench %s: %v\n", name, err)
		return 2
	}
	rep := obs.Compare(oldRecs, newRecs, obs.Thresholds{
		Time: *timeTh, Count: *countTh, MADFactor: *madF, MinTimeMS: *minMS,
	})
	if *asJSON {
		err = rep.WriteJSON(os.Stdout)
	} else {
		err = rep.WriteText(os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtmsched bench %s: %v\n", name, err)
		return 2
	}
	if gate && !rep.Pass() {
		return 1
	}
	return 0
}
