// The serve subcommand runs the streaming scheduler service: a seeded
// load generator injects transactions continuously, the service admits
// them into a bounded queue (block or reject backpressure), cuts rolling
// scheduling windows, and executes each
// window through the engine while the next one fills. The run drains
// deterministically: the same seed and flags reproduce the admission
// order, window cuts, commit steps, and the summary digest bit-for-bit.
//
//	dtmsched serve -topo line -n 16 -rate 0.8 -txns 500 -policy reject
//	dtmsched serve -topo grid -side 8 -w 32 -rate 0.5 -ledger serve.jsonl -prom metrics.prom
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dtmsched/internal/cliutil"
	"dtmsched/internal/engine"
	"dtmsched/internal/faults"
	"dtmsched/internal/graph"
	"dtmsched/internal/obs"
	"dtmsched/internal/stream"
	"dtmsched/internal/xrand"
)

// runServeCmd implements `dtmsched serve`.
func runServeCmd(args []string) error {
	fs := flag.NewFlagSet("dtmsched serve", flag.ExitOnError)
	tf := cliutil.RegisterTopoFlags(fs, cliutil.TopoFlags{
		Name: "clique", N: 16, Side: 8, Dim: 5, Alpha: 4, Beta: 8, Gamma: 16,
		Fanout: "4,8", LinkW: "8,1",
	})
	wf := cliutil.RegisterWorkloadFlags(fs, cliutil.WorkloadFlags{Name: "uniform", W: 16, K: 2, Locality: 0.9})
	var (
		rate     = fs.Float64("rate", 0.5, "injection rate in transactions per logical step")
		txns     = fs.Int("txns", 500, "total transactions to stream before draining")
		window   = fs.Int("window", 0, "max transactions per scheduling window (0 = node count)")
		queue    = fs.Int("queue", 0, "admission queue capacity (0 = 2×window)")
		policy   = fs.String("policy", "block", "backpressure policy when the queue is full: block|reject")
		verify   = fs.String("verify", "fast", "per-window verification: full|fast|off (fast and off serve alike, on the loop's own Definition 1 check; full also replays each window in the simulator)")
		retries  = fs.Int("retries", 1, "engine attempts per window (≤ 1 = no retry)")
		deadline = fs.Duration("deadline", 0, "per-window engine deadline (0 = none)")
		pipeline = fs.Int("pipeline", 2, "windows that may queue for execution while later ones are cut")
		seed     = fs.Int64("seed", 0, "root seed (0 = library default)")
		ledger   = fs.String("ledger", "", "append one run record (stream counters + window latency) to FILE")
		prom     = fs.String("prom", "", "write the final Prometheus text exposition to FILE")
		faultsF  = fs.String("faults", "", "chaos injection RATE[,SEED]: per-chunk link down/slow at RATE, crashes at RATE/2, drops at RATE/4 (empty = off)")
		shed     = fs.Int("shed", 3, "requeues a down-node transaction survives before it is shed")
		trip     = fs.Float64("inflation-trip", 1.5, "rolling makespan-inflation ratio that trips the admission breaker to reject")
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
	pol, err := stream.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	vm, err := parseVerifyMode(*verify)
	if err != nil {
		return err
	}

	g := topo.Graph()
	metric := graph.FuncMetric(topo.Dist)

	spec, err := cliutil.ParseFaultSpec(*faultsF)
	if err != nil {
		return err
	}
	// The wall clock (printed as wall= and recorded as the ledger's
	// TotalMS) covers everything the user waits for, chaos-plan
	// generation included.
	start := time.Now()
	var inj *faults.Plan
	if spec.Rate > 0 {
		chaosSeed := spec.Seed
		if chaosSeed == 0 {
			chaosSeed = rootSeed
		}
		// Horizon covers roughly twice the nominal stream duration so
		// chaos pressure persists through the drain; the redraw chunk is
		// the expected steps one serving window takes to fill.
		horizon := int64(2 * float64(*txns) / *rate)
		if horizon < 64 {
			horizon = 64
		}
		effWindow := *window
		if effWindow <= 0 {
			effWindow = g.NumNodes()
		}
		chunk := int64(float64(effWindow) / *rate)
		inj, err = stream.NewChaos(stream.ChaosConfig{
			Rate: spec.Rate, Seed: chaosSeed, Horizon: horizon, Chunk: chunk,
		}, g)
		if err != nil {
			return err
		}
	}

	homes := make([]graph.NodeID, wl.W)
	homeRng := xrand.NewDerived(rootSeed, "serve", "homes", tf.Name)
	for o := range homes {
		homes[o] = g.Nodes()[homeRng.Intn(g.NumNodes())]
	}

	col := obs.NewMetricsCollector()
	cfg := stream.Config{
		G:          g,
		Metric:     metric,
		NumObjects: wl.W,
		Home:       homes,
		Source: stream.NewGenerator(
			xrand.NewDerived(rootSeed, "serve", "gen", tf.Name), g, wl, *rate, *txns),
		MaxWindow:     *window,
		QueueCap:      *queue,
		Policy:        pol,
		Verify:        vm,
		Retry:         engine.RetryPolicy{MaxAttempts: *retries},
		Deadline:      *deadline,
		PipelineDepth: *pipeline,
		Collector:     col,
		Faults:        inj,
		MaxRequeue:    *shed,
		InflationTrip: *trip,
		OnCancel:      stream.CancelDrain,
	}

	// SIGINT/SIGTERM trigger a graceful drain: stop admitting, flush the
	// queue and in-flight windows, then print the summary and write the
	// ledger as usual with the cancelled marker set.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := stream.Serve(ctx, cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	fmt.Printf("serve %s: %d nodes, %d objects, workload %s, rate %.3g, policy %s, verify %s, seed %d\n",
		tf.Name, g.NumNodes(), wl.W, wf.Name, *rate, pol, vm, rootSeed)
	fmt.Printf("admitted=%d rejected=%d blocked=%d committed=%d windows=%d\n",
		res.Admitted, res.Rejected, res.Blocked, res.Committed, res.Windows)
	fmt.Printf("clock=%d steps throughput=%.4f txn/step comm=%d queue_peak=%d\n",
		res.Clock, res.Throughput, res.CommCost, res.QueuePeak)
	fmt.Printf("response mean=%.2f max=%d steps\n", res.MeanResponse, res.MaxResponse)
	if inj != nil {
		fmt.Printf("faults %s: requeued=%d shed=%d degraded=%d inflation=%.3f trips=%d recoveries=%d\n",
			*faultsF, res.Requeued, res.Shed, res.DegradedWindows,
			res.MeanInflation, res.BreakerTrips, res.BreakerRecoveries)
	}
	if res.Cancelled {
		fmt.Println("cancelled: drained queued and in-flight windows before summarizing")
	}
	fmt.Printf("digest=%016x wall=%s\n", res.Digest, wall.Round(time.Millisecond))

	if *prom != "" {
		f, err := os.Create(*prom)
		if err != nil {
			return err
		}
		if err := col.Registry().WriteProm(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *prom)
	}
	if *ledger != "" {
		if err := appendServeRecord(*ledger, tf.Name, wf.Name, fs, rootSeed, inj != nil, col, wall); err != nil {
			return err
		}
		fmt.Printf("appended run record to %s\n", *ledger)
	}
	return nil
}

// appendServeRecord writes the run's single ledger entry: every series
// the run published (stream admission and window series, the engine's
// per-window series), fingerprinted by the full serving configuration
// so `bench compare` pools repeat runs of one setup.
func appendServeRecord(path, topoName, workload string, fs *flag.FlagSet, rootSeed int64,
	faultsOn bool, col *obs.Collector, wall time.Duration) error {
	config := map[string]string{"topo": topoName, "workload": workload}
	names := []string{"n", "side", "dim", "alpha", "beta", "gamma",
		"fanout", "linkw", "w", "k", "locality",
		"rate", "txns", "window", "queue", "policy", "verify"}
	if faultsOn {
		// Chaos flags enter the fingerprint only when active, so
		// fault-free records keep their historical grouping.
		names = append(names, "faults", "shed", "inflation-trip")
	}
	for _, name := range names {
		config[name] = fs.Lookup(name).Value.String()
	}
	config["seed"] = fmt.Sprint(rootSeed)

	rec := obs.RunRecord{
		Experiment: "serve/" + topoName,
		Config:     config,
		Seed:       rootSeed,
		Algorithm:  "stream/window",
		TotalMS:    float64(wall.Nanoseconds()) / 1e6,
	}
	// The registry was created for this run, so the whole snapshot is
	// the run's delta, gauges (queue peaks) included.
	rec.SetDelta(nil, col.Registry().Snapshot())

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l := obs.NewLedger(f)
	err = l.Append(&rec)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// parseVerifyMode resolves the -verify flag.
func parseVerifyMode(s string) (engine.VerifyMode, error) {
	switch strings.ToLower(s) {
	case "full":
		return engine.VerifyFull, nil
	case "fast":
		return engine.VerifyFast, nil
	case "off":
		return engine.VerifyOff, nil
	default:
		return 0, fmt.Errorf("unknown verify mode %q (want full, fast, or off)", s)
	}
}
