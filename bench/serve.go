package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"dtmsched/internal/engine"
	"dtmsched/internal/graph"
	"dtmsched/internal/obs"
	"dtmsched/internal/stream"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// sliceSource replays a pre-generated stream.
type sliceSource struct {
	items []stream.Item
	next  int
}

func (s *sliceSource) Next() (stream.Item, bool) {
	if s.next == len(s.items) {
		return stream.Item{}, false
	}
	s.next++
	return s.items[s.next-1], true
}

// timedSource times every Next call of its source (traced runs only).
type timedSource struct {
	src stream.Source
	ns  int64
}

func (s *timedSource) Next() (stream.Item, bool) {
	t := time.Now()
	it, ok := s.src.Next()
	s.ns += time.Since(t).Nanoseconds()
	return it, ok
}

// serveEnv runs a serve workload: NewChaos then Serve per stream, as
// dtmsched serve does.
type serveEnv struct {
	name   string
	spec   *serveSpec
	seed   int64
	g      *graph.Graph
	metric graph.Metric
	col    *obs.Collector
}

func newServeEnv(name string, spec *serveSpec, seed int64) *serveEnv {
	topo := topology.NewSquareGrid(spec.Side)
	return &serveEnv{name: name, spec: spec, seed: seed, g: topo.Graph(),
		metric: graph.FuncMetric(topo.Dist), col: obs.NewMetricsCollector()}
}

// input pre-generates stream label of txns transactions and the object
// homes. The seed leaves out the workload name, so serve-steady and
// serve-chaos draw the same streams.
func (e *serveEnv) input(label string, txns int) ([]stream.Item, []graph.NodeID, error) {
	s := xrand.Derive(e.seed, "serve", e.spec.Topo, label)
	gen, err := stream.MakeGenerator(xrand.New(s), e.g, tm.UniformK(e.spec.W, e.spec.K), e.spec.Rate, txns)
	if err != nil {
		return nil, nil, err
	}
	items := make([]stream.Item, 0, txns)
	for it, ok := gen.Next(); ok; it, ok = gen.Next() {
		items = append(items, it)
	}
	homes := make([]graph.NodeID, e.spec.W)
	hr := xrand.NewDerived(s, "homes")
	nodes := e.g.Nodes()
	for o := range homes {
		homes[o] = nodes[hr.Intn(len(nodes))]
	}
	return items, homes, nil
}

// streamRun is one timed stream.
type streamRun struct {
	res        *stream.Result
	planFaults int
	// t0 → t1 is NewChaos, t1 → t2 is Serve.
	t0, t1, t2 time.Time
}

// serve runs one stream: the chaos plan and Serve, timed together since
// the user pays for both. The injector and the horizon/chunk sizing are
// dtmsched serve's.
func (e *serveEnv) serve(ctx context.Context, label string, src stream.Source, txns int, homes []graph.NodeID, hook engine.Hook) (streamRun, error) {
	horizon := max(int64(2*float64(txns)/e.spec.Rate), 64)
	chunk := int64(float64(e.g.NumNodes()) / e.spec.Rate)
	var r streamRun
	r.t0 = time.Now()
	inj, err := stream.NewChaos(stream.ChaosConfig{
		Rate: e.spec.ChaosRate, Seed: xrand.Derive(e.seed, e.name, e.spec.Topo, label, "chaos"),
		Horizon: horizon, Chunk: chunk,
	}, e.g)
	if err != nil {
		return r, err
	}
	r.t1 = time.Now()
	r.res, err = stream.Serve(ctx, stream.Config{
		G: e.g, Metric: e.metric, NumObjects: e.spec.W, Home: homes, Source: src,
		Policy: stream.Block, Verify: engine.VerifyFast,
		Retry:         engine.RetryPolicy{MaxAttempts: 1},
		PipelineDepth: 2, Collector: e.col, Hook: hook,
		Faults: inj, MaxRequeue: 3, InflationTrip: 1.5, OnCancel: stream.CancelDrain,
	})
	r.t2 = time.Now()
	if inj != nil {
		r.planFaults = inj.Count()
	}
	return r, err
}

// warmup serves one untimed stream of 4% of a stream's transactions.
func (e *serveEnv) warmup(ctx context.Context) error {
	w := *e
	w.seed = warmupSeed
	txns := max(e.spec.Txns/25, 1)
	items, homes, err := w.input("warmup", txns)
	if err != nil {
		return err
	}
	_, err = w.serve(ctx, "warmup", &sliceSource{items: items}, txns, homes, nil)
	return err
}

// checkStream returns why a drained stream is wrong, or "".
func checkStream(res *stream.Result, offered int) string {
	switch {
	case res.Admitted != res.Committed+res.Shed:
		return fmt.Sprintf("admitted %d != committed %d + shed %d", res.Admitted, res.Committed, res.Shed)
	case res.Committed <= 0:
		return "nothing committed"
	case res.Admitted+res.Rejected != int64(offered):
		return fmt.Sprintf("admitted %d + rejected %d != offered %d", res.Admitted, res.Rejected, offered)
	}
	return ""
}

// serveRun accumulates the streams of one measured pass, untraced or
// traced.
type serveRun struct {
	*phase
	e                    *serveEnv
	tr                   *tracer
	counts               map[string]float64
	quality              struct{ streams, clock, goodput, resp, committed float64 }
	generate             time.Duration
	sourceNs, sourceTxns float64
	idle, verify, gaps   []float64
}

func (e *serveEnv) newRun(tr *tracer) *serveRun {
	r := &serveRun{phase: newPhase(), e: e, tr: tr, counts: map[string]float64{}}
	r.medianRate = true
	return r
}

// measure serves whole streams until the budget is spent, and at least
// MinStreams of them. With a tracer every stream is served twice,
// untraced and then traced, so the two passes see the same inputs at the
// same time.
func (e *serveEnv) measure(ctx context.Context, budget time.Duration, tr *tracer) (*phase, *phase, error) {
	plain := e.newRun(nil)
	var traced *serveRun
	if tr != nil {
		traced = e.newRun(tr)
	}
	start := time.Now()
	for i := 0; i < e.spec.MinStreams || !spent(start, budget, i); i++ {
		label := strconv.Itoa(i)
		tg := time.Now()
		items, homes, err := e.input(label, e.spec.Txns)
		if err != nil {
			return nil, nil, err
		}
		gen := time.Since(tg)
		plain.stream(ctx, i, label, items, homes, gen)
		if traced != nil {
			traced.stream(ctx, i, label, items, homes, gen)
		}
	}
	if traced == nil {
		return plain.finish(), nil, nil
	}
	return plain.finish(), traced.finish(), nil
}

// stream serves stream i (pre-generated in gen) and records it.
func (r *serveRun) stream(ctx context.Context, i int, label string, items []stream.Item, homes []graph.NodeID, gen time.Duration) {
	r.generate += gen
	var (
		src   stream.Source = &sliceSource{items: items}
		timed *timedSource
		evs   []stageEvent
	)
	// A window's job wall runs from its first stage's start to its
	// StageDone event, like the timer around an offline engine.Run: it
	// includes the collector hand-off that StageDone's own elapsed time
	// leaves out.
	jobMs := make([]float64, 0, len(items)/16+16)
	var jobStart time.Time
	hook := func(ev engine.Event) {
		switch ev.Stage {
		case engine.StageGenerate:
			jobStart = time.Now().Add(-ev.Elapsed)
		case engine.StageDone:
			jobMs = append(jobMs, ms(time.Since(jobStart)))
		}
	}
	if r.tr != nil {
		timed = &timedSource{src: src}
		src, hook = timed, recorder(&evs)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	run, err := r.e.serve(ctx, label, src, len(items), homes, hook)
	runtime.ReadMemStats(&m1)

	r.attempted += int64(len(items))
	if err == nil {
		if why := checkStream(run.res, len(items)); why != "" {
			err = fmt.Errorf("%s", why)
		}
	}
	if err != nil {
		r.fail(int64(len(items)), fmt.Sprintf("stream %s: %v", label, err))
		return
	}
	res := run.res
	r.failed += res.Rejected + res.Shed
	r.units = append(r.units, unit{txns: float64(res.Committed), wall: run.t2.Sub(run.t0)})
	r.ops += float64(res.Committed)
	r.alloc(&m0, &m1)
	r.jobMs[r.e.spec.Topo] = append(r.jobMs[r.e.spec.Topo], jobMs...)

	if i < r.e.spec.MinStreams {
		r.digests = append(r.digests, fmt.Sprintf("stream%s=%016x", label, res.Digest))
		q := &r.quality
		q.streams++
		q.clock += float64(res.Clock)
		q.goodput += res.Throughput
		q.resp += res.MeanResponse * float64(res.Committed)
		q.committed += float64(res.Committed)
		c := r.counts
		c["stream.windows"] += float64(res.Windows)
		c["stream.queue_peak"] += float64(res.QueuePeak)
		c["stream.blocked"] += float64(res.Blocked)
		c["stream.rejected"] += float64(res.Rejected)
		c["stream.requeued"] += float64(res.Requeued)
		c["stream.shed"] += float64(res.Shed)
		c["stream.degraded_windows"] += float64(res.DegradedWindows)
		c["stream.breaker_trips"] += float64(res.BreakerTrips)
		c["stream.comm_cost"] += float64(res.CommCost)
		c["faults.plan_faults"] += float64(run.planFaults)
		for _, ev := range evs {
			if f := ev.report; f != nil && f.Fault != nil {
				c["faults.retries"] += float64(f.Fault.Retries)
				c["faults.reroutes"] += float64(f.Fault.Reroutes)
				c["faults.deferred_commits"] += float64(f.Fault.DeferredCommits)
				c["faults.wasted_comm"] += float64(f.Fault.WastedComm)
			}
		}
	}
	if r.tr == nil {
		return
	}
	tr := r.tr
	r.sourceNs += float64(timed.ns)
	r.sourceTxns += float64(len(items))
	trace := len(tr.spans) + 1
	root := tr.add(trace, 0, "bench.stream", tr.ns(run.t0), tr.ns(run.t2), false)
	tr.add(trace, root, "faults.plan", tr.ns(run.t0), tr.ns(run.t1), false)
	srv := tr.add(trace, root, "stream.serve", tr.ns(run.t1), tr.ns(run.t2), false)
	lastEnd := tr.spans[srv-1].Start
	from := 0
	for j, ev := range evs {
		if ev.stage != engine.StageDone {
			continue
		}
		w := tr.spans[tr.addRun(trace, srv, "engine.window", "engine.window.", evs[from:j+1], nil)-1]
		r.jobMs[r.e.spec.Topo] = append(r.jobMs[r.e.spec.Topo], float64(w.End-w.Start)/1e6)
		r.idle = append(r.idle, float64(w.Start-lastEnd)/1e3)
		r.gaps = append(r.gaps, float64(w.End-lastEnd)/1e3)
		lastEnd = w.End
		for _, s := range evs[from:j] {
			if s.stage == engine.StageVerify {
				r.verify = append(r.verify, float64(s.elapsed.Nanoseconds())/1e3)
			}
		}
		from = j + 1
	}
}

// finish computes the pass's metrics.
func (r *serveRun) finish() *phase {
	p := r.phase
	p.timing()
	q := r.quality
	p.e2e["makespan_mean"] = ratio(q.clock, q.streams)
	p.e2e["goodput_txn_per_step"] = ratio(q.goodput, q.streams)
	p.e2e["response_steps_mean"] = ratio(q.resp, q.committed)
	if r.tr == nil {
		return p
	}

	st := totals(r.tr.spans)
	n := float64(st.roots)
	perStream := func(ns float64) float64 { return ratio(ns, n) / 1e6 }
	l := p.layers
	for k, v := range r.counts {
		l[k] = ratio(v, q.streams)
	}
	l["stream.window_txns_mean"] = ratio(q.committed, r.counts["stream.windows"])
	l["engine.measure_ms"] = perStream(st.dur["engine.window.measure"])
	l["engine.measure_share"] = ratio(st.dur["engine.window.measure"], st.dur["bench.stream"])
	l["core.schedule_self_ms"] = perStream(st.dur["engine.window.schedule"])
	l["engine.verify_ms"] = perStream(st.dur["engine.window.verify"])
	l["engine.overhead_ms"] = perStream(st.self["engine.window"])
	l["obs.record_ms"] = perStream(st.dur["obs.record"])
	l["engine.window_busy_ms"] = perStream(st.dur["engine.window"])
	l["engine.window_busy_share"] = ratio(st.dur["engine.window"], st.dur["stream.serve"])
	l["engine.window_idle_us_p50"] = percentile(r.idle, 500)
	l["engine.window_idle_us_p99"] = percentile(r.idle, 990)
	l["engine.window_verify_us_p50"] = percentile(r.verify, 500)
	l["engine.window_verify_us_p99"] = percentile(r.verify, 990)
	l["stream.window_gap_us_p50"] = percentile(r.gaps, 500)
	l["stream.window_gap_us_p99"] = percentile(r.gaps, 990)
	l["stream.serve_ms"] = perStream(st.dur["stream.serve"])
	l["stream.loop_self_ms"] = perStream(st.self["stream.serve"])
	l["stream.source_ns_per_txn"] = ratio(r.sourceNs, r.sourceTxns)
	l["faults.plan_ms"] = perStream(st.dur["faults.plan"])
	l["faults.plan_share"] = ratio(st.dur["faults.plan"], st.dur["bench.stream"])
	l["tm.generate_ms"] = ratio(ms(r.generate), n)
	l["bench.span_coverage_min"] = st.minCoverage
	return p
}
