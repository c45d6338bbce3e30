// Command dtmbench regenerates every experiment of the reproduction
// (E1–E11): one per theorem of the paper, the Section 8 lower-bound
// constructions, and the baseline/ablation comparisons. Its output is the
// source of EXPERIMENTS.md; -json additionally writes a machine-readable
// results file (see BENCH_RESULTS.json).
//
// Usage:
//
//	dtmbench [-quick] [-trials N] [-seed S] [-only E5[,E6,…]] [-md]
//	         [-parallel N] [-timeout D] [-faults RATE[,RATE…][,SEED]]
//	         [-json FILE] [-trace FILE] [-metrics FILE] [-http ADDR]
//	         [-ledger FILE]
//
// -faults runs the fault-injection sweep (E20, unless -only selects
// more): fractional tokens are fault rates, an integer token reseeds the
// run. A single rate r expands to the ladder 0, r/4, r/2, r; the
// inflation-vs-fault-rate table lands in the normal output and -json.
//
// -trace writes a structured JSONL run trace to FILE and a Chrome
// trace-event file (open it in Perfetto or chrome://tracing) next to it;
// -metrics writes the final metrics snapshot; -http serves
// /debug/pprof/*, /debug/vars, and /metrics while the sweep runs, so
// `go tool pprof http://ADDR/debug/pprof/profile` profiles a live sweep.
//
// -ledger appends one schema-versioned run-ledger record per experiment
// (JSONL); compare or gate accumulated ledgers with `dtmsched bench
// compare OLD NEW` / `dtmsched bench gate OLD NEW`.
package main

import (
	"context"
	"encoding/json"
	_ "expvar" // registers /debug/vars on the default mux
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dtmsched/internal/experiments"
	"dtmsched/internal/lower"
	"dtmsched/internal/obs"
	"dtmsched/internal/stats"
)

// expvarName is the expvar namespace the metrics registry publishes
// under (served at /debug/vars). It must match the binary, not its
// sibling CLI — pinned by TestPublishPrefix.
const expvarName = "dtmbench"

// jsonCheck, jsonColumn, jsonExperiment, and jsonOutput define the schema
// of the -json results file.
type jsonCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

type jsonColumn struct {
	Name string  `json:"name"`
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// jsonPipeline surfaces the engine instrumentation that each experiment's
// jobs measure: summed per-stage wall time, summed whole-job wall time
// (which spans the stages, so it is kept apart from them), and the
// simulator counters.
type jsonPipeline struct {
	StageMS         map[string]float64 `json:"stage_ms,omitempty"`
	JobMS           float64            `json:"job_ms,omitempty"`
	DepGraphBuildMS float64            `json:"depgraph_build_ms,omitempty"`
	DepGraphBuilds  int64              `json:"depgraph_builds,omitempty"`
	LowerMS         float64            `json:"lower_ms,omitempty"`
	LowerComputes   int64              `json:"lower_computations,omitempty"`
	LowerCacheHits  int64              `json:"lower_cache_hits,omitempty"`
	SimSteps        int64              `json:"sim_steps"`
	ObjectMoves     int64              `json:"object_moves"`
	Executed        int64              `json:"txns_executed"`
}

type jsonExperiment struct {
	ID        string       `json:"id"`
	Title     string       `json:"title"`
	Ref       string       `json:"ref"`
	WallMS    float64      `json:"wall_ms"`
	Pipeline  jsonPipeline `json:"pipeline"`
	Header    []string     `json:"header"`
	Rows      [][]string   `json:"rows"`
	Summaries []jsonColumn `json:"summaries"`
	Checks    []jsonCheck  `json:"checks"`
	Notes     []string     `json:"notes,omitempty"`
}

type jsonOutput struct {
	Quick       bool             `json:"quick"`
	Trials      int              `json:"trials"`
	Seed        int64            `json:"seed"`
	Workers     int              `json:"workers"`
	TotalMS     float64          `json:"total_ms"`
	Pipeline    jsonPipeline     `json:"pipeline"`
	ChecksRun   int              `json:"checks_run"`
	ChecksFail  int              `json:"checks_failed"`
	Experiments []jsonExperiment `json:"experiments"`
}

// counterMap extracts the counters of a registry snapshot by full name.
func counterMap(samples []obs.Sample) map[string]int64 {
	out := make(map[string]int64, len(samples))
	for _, s := range samples {
		if s.Kind == "counter" {
			out[s.Name] = s.Value
		}
	}
	return out
}

// pipelineDelta computes the engine instrumentation accumulated between
// two counter snapshots.
func pipelineDelta(prev, cur map[string]int64) jsonPipeline {
	d := func(name string) int64 { return cur[name] - prev[name] }
	p := jsonPipeline{
		SimSteps:    d("sim_steps_total"),
		ObjectMoves: d("object_moves_total"),
		Executed:    d("txns_executed_total"),
		StageMS:     map[string]float64{},
	}
	for _, stage := range []string{"generate", "schedule", "verify", "measure"} {
		if us := d("engine_stage_wall_us{stage=" + stage + "}"); us != 0 {
			p.StageMS[stage] = float64(us) / 1000
		}
	}
	// The engine files each job's total wall under the done stage.
	p.JobMS = float64(d("engine_stage_wall_us{stage=done}")) / 1000
	if ns := d("depgraph_build_ns_total"); ns != 0 {
		p.DepGraphBuildMS = float64(ns) / 1e6
		p.DepGraphBuilds = d("depgraph_builds_total")
	}
	if n := d("lower_computations_total"); n != 0 {
		p.LowerMS = float64(d("lower_compute_ns_total")) / 1e6
		p.LowerComputes = n
	}
	p.LowerCacheHits = d("lower_cache_hits_total")
	return p
}

// columnSummaries extracts mean/min/max per numeric table column; columns
// with no parseable cells are skipped.
func columnSummaries(t *stats.Table) []jsonColumn {
	header, rows := t.Header(), t.Rows()
	var cols []jsonColumn
	for i, name := range header {
		var xs []float64
		for _, row := range rows {
			if v, err := strconv.ParseFloat(strings.TrimSuffix(row[i], "x"), 64); err == nil && !math.IsInf(v, 0) && !math.IsNaN(v) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			continue
		}
		s := stats.Summarize(xs)
		cols = append(cols, jsonColumn{Name: name, N: s.N, Mean: s.Mean, Min: s.Min, Max: s.Max})
	}
	return cols
}

func main() {
	var (
		quick     = flag.Bool("quick", false, "shrink sweeps for a fast run")
		trials    = flag.Int("trials", 3, "random instances per parameter cell")
		seed      = flag.Int64("seed", 0, "root seed (0 = library default)")
		only      = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		md        = flag.Bool("md", false, "emit Markdown headings (for EXPERIMENTS.md)")
		csv       = flag.Bool("csv", false, "emit tables as CSV (one block per experiment) for plotting")
		parallel  = flag.Int("parallel", 0, "engine workers per experiment sweep (0 = GOMAXPROCS)")
		shardw    = flag.Int("shardworkers", 0, "hierarchical shard workers for E22 (0 = GOMAXPROCS); schedules are identical at every count")
		timeout   = flag.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
		faultsIn  = flag.String("faults", "", "fault-injection sweep: comma-separated fault rates in [0,1) plus an optional integer seed (selects E20 unless -only is set)")
		jsonOut   = flag.String("json", "", "write machine-readable results to FILE")
		traceOut  = flag.String("trace", "", "write a JSONL run trace to FILE (plus a Chrome trace next to it)")
		metrOut   = flag.String("metrics", "", "write the final metrics snapshot (JSON) to FILE")
		httpAddr  = flag.String("http", "", "serve /debug/pprof/*, /debug/vars, and /metrics (JSON; ?format=prom for Prometheus text) on ADDR while running")
		ledgerOut = flag.String("ledger", "", "append one run-ledger record per experiment to FILE (JSONL; gate with `dtmsched bench compare/gate`)")
	)
	flag.Parse()
	if *trials < 1 {
		fmt.Fprintf(os.Stderr, "dtmbench: -trials must be at least 1 (got %d)\n", *trials)
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	cfg.Quick = *quick
	cfg.Trials = *trials
	cfg.Workers = *parallel
	cfg.HierWorkers = *shardw
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *faultsIn != "" {
		rates, fseed, err := parseFaultsSpec(*faultsIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dtmbench: -faults: %v\n", err)
			os.Exit(2)
		}
		cfg.FaultRates = rates
		if fseed != 0 && *seed == 0 {
			cfg.Seed = fseed
		}
		if *only == "" {
			*only = "E20"
		}
	}

	// The collector is always attached: metrics-only by default, with
	// full trace retention when -trace asks for it. Trace retention is
	// capped so an all-experiments run cannot hold every span in memory;
	// the cap is reported, never silent.
	const maxTraceRuns = 256
	col := obs.NewMetricsCollector()
	if *traceOut != "" {
		col = obs.NewCollectorConfig(obs.Config{Traces: true, MaxTraceRuns: maxTraceRuns})
	}
	cfg.Collector = col
	var ledger *obs.Ledger
	var ledgerFile *os.File
	if *ledgerOut != "" {
		f, err := os.OpenFile(*ledgerOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dtmbench: -ledger: %v\n", err)
			os.Exit(2)
		}
		ledgerFile = f
		ledger = obs.NewLedger(f)
	}
	if *httpAddr != "" {
		col.Registry().Publish(expvarName)
		http.HandleFunc("/metrics", col.MetricsHandler())
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "dtmbench: http server: %v\n", err)
			}
		}()
		fmt.Printf("serving /debug/pprof/, /debug/vars, /metrics on %s\n", *httpAddr)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cfg.Ctx = ctx

	var selected []experiments.Experiment
	if *only == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "dtmbench: unknown experiment %q\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	out := jsonOutput{Quick: *quick, Trials: *trials, Seed: cfg.Seed, Workers: *parallel}
	failures := 0
	runStart := time.Now()
	prevSnap := col.Registry().Snapshot()
	prevCounters := counterMap(prevSnap)
	for _, e := range selected {
		start := time.Now()
		// One bound oracle per experiment: every engine job and direct
		// bound query of the experiment shares it (k algorithms × t trials
		// on one instance compute the bound once), while its instances
		// stay collectable after the experiment ends.
		cfg.LowerOracle = lower.NewOracle()
		res, err := e.Run(cfg)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "dtmbench: %s aborted: %v (timeout %s)\n", e.ID, err, *timeout)
			} else {
				fmt.Fprintf(os.Stderr, "dtmbench: %s failed: %v\n", e.ID, err)
			}
			os.Exit(1)
		}
		elapsed := time.Since(start)
		rounded := elapsed.Round(time.Millisecond)
		switch {
		case *md:
			fmt.Printf("## %s — %s\n\n*%s* (completed in %s)\n\n```\n%s```\n\n", res.ID, res.Title, res.Ref, rounded, res.Table)
		case *csv:
			fmt.Printf("# %s,%s\n%s\n", res.ID, res.Title, res.Table.CSV())
		default:
			fmt.Printf("=== %s — %s [%s] (%s)\n\n%s\n", res.ID, res.Title, res.Ref, rounded, res.Table)
		}
		curSnap := col.Registry().Snapshot()
		curCounters := counterMap(curSnap)
		je := jsonExperiment{ID: res.ID, Title: res.Title, Ref: res.Ref,
			WallMS:   float64(elapsed.Microseconds()) / 1000,
			Pipeline: pipelineDelta(prevCounters, curCounters),
			Header:   res.Table.Header(), Rows: res.Table.Rows(),
			Summaries: columnSummaries(res.Table), Notes: res.Notes}
		if ledger != nil {
			ledger.Append(ledgerRecord(res.ID, cfg, *quick, je.WallMS, prevSnap, curSnap))
		}
		prevSnap, prevCounters = curSnap, curCounters
		for _, c := range res.Checks {
			mark := "PASS"
			if !c.OK {
				mark = "FAIL"
				failures++
			}
			fmt.Printf("  [%s] %s — %s\n", mark, c.Name, c.Detail)
			je.Checks = append(je.Checks, jsonCheck{Name: c.Name, OK: c.OK, Detail: c.Detail})
			out.ChecksRun++
		}
		for _, n := range res.Notes {
			fmt.Printf("  note: %s\n", n)
		}
		fmt.Println()
		out.Experiments = append(out.Experiments, je)
	}
	out.TotalMS = float64(time.Since(runStart).Microseconds()) / 1000
	out.Pipeline = pipelineDelta(map[string]int64{}, prevCounters)
	out.ChecksFail = failures

	if *traceOut != "" {
		if err := writeFileWith(*traceOut, col.WriteJSONL); err != nil {
			fmt.Fprintf(os.Stderr, "dtmbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		chromePath := strings.TrimSuffix(*traceOut, filepath.Ext(*traceOut)) + ".chrome.json"
		if err := writeFileWith(chromePath, col.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "dtmbench: writing chrome trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s and %s (trace retains up to %d runs)\n", *traceOut, chromePath, maxTraceRuns)
	}
	if *metrOut != "" {
		if err := writeFileWith(*metrOut, col.WriteMetrics); err != nil {
			fmt.Fprintf(os.Stderr, "dtmbench: writing metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *metrOut)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "dtmbench: encoding results: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dtmbench: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d experiments, %d checks)\n", *jsonOut, len(out.Experiments), out.ChecksRun)
	}
	if ledger != nil {
		if err := ledger.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "dtmbench: ledger: %v\n", err)
			os.Exit(1)
		}
		if err := ledgerFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "dtmbench: ledger: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("appended %d run-ledger records to %s\n", len(out.Experiments), *ledgerOut)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "dtmbench: %d shape checks failed\n", failures)
		os.Exit(1)
	}
}

// ledgerRecord builds the run-ledger record for one finished
// experiment: identity from the sweep configuration (so reruns with the
// same flags share a fingerprint), its wall time, and every registry
// series the experiment moved between the surrounding snapshots.
func ledgerRecord(id string, cfg experiments.Config, quick bool, wallMS float64, prevSnap, curSnap []obs.Sample) *obs.RunRecord {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rec := &obs.RunRecord{
		Experiment: id,
		Config: map[string]string{
			"quick":   strconv.FormatBool(quick),
			"trials":  strconv.Itoa(cfg.Trials),
			"seed":    strconv.FormatInt(cfg.Seed, 10),
			"workers": strconv.Itoa(workers),
		},
		Seed:    cfg.Seed,
		TotalMS: wallMS,
	}
	rec.SetDelta(prevSnap, curSnap)
	return rec
}

// parseFaultsSpec parses the -faults argument: fractional tokens in
// [0,1) are fault rates, a single integer token is a root seed. One
// nonzero rate r expands to the ladder 0, r/4, r/2, r; explicit multi-rate
// lists gain a leading 0 (the fault-free baseline column) when missing.
func parseFaultsSpec(spec string) (rates []float64, seed int64, err error) {
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if !strings.Contains(tok, ".") {
			n, perr := strconv.ParseInt(tok, 10, 64)
			if perr != nil {
				return nil, 0, fmt.Errorf("token %q is neither a rate nor an integer seed", tok)
			}
			if n == 0 {
				rates = append(rates, 0)
				continue
			}
			if seed != 0 {
				return nil, 0, fmt.Errorf("two seeds given (%d and %d)", seed, n)
			}
			seed = n
			continue
		}
		v, perr := strconv.ParseFloat(tok, 64)
		if perr != nil || v < 0 || v >= 1 {
			return nil, 0, fmt.Errorf("fault rate %q must be in [0,1)", tok)
		}
		rates = append(rates, v)
	}
	var nonzero []float64
	for _, r := range rates {
		if r > 0 {
			nonzero = append(nonzero, r)
		}
	}
	if len(nonzero) == 1 {
		r := nonzero[0]
		rates = []float64{0, r / 4, r / 2, r}
	} else if len(nonzero) > 1 {
		rates = append([]float64{0}, nonzero...)
		sort.Float64s(rates)
	}
	return rates, seed, nil
}

// writeFileWith streams a collector export into a file.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
