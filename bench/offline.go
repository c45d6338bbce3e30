package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"time"

	"dtmsched/internal/engine"
	"dtmsched/internal/graph"
	"dtmsched/internal/obs"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// offlineEnv runs an offline workload: one engine.Run per job, closed
// loop, one client.
type offlineEnv struct {
	name    string
	spec    *offlineSpec
	seed    int64
	verify  engine.VerifyMode
	topos   []topology.Topology
	metrics []graph.Metric
	col     *obs.Collector
}

func newOfflineEnv(name string, spec *offlineSpec, seed int64) (*offlineEnv, error) {
	e := &offlineEnv{name: name, spec: spec, seed: seed, col: obs.NewMetricsCollector()}
	switch spec.Verify {
	case "full":
		e.verify = engine.VerifyFull
	case "fast":
		e.verify = engine.VerifyFast
	default:
		return nil, fmt.Errorf("workload %s: unknown verify policy %q", name, spec.Verify)
	}
	for _, c := range spec.Cells {
		t := c.mk()
		e.topos = append(e.topos, t)
		e.metrics = append(e.metrics, graph.FuncMetric(t.Dist))
	}
	return e, nil
}

// job generates the input of cell c's job with the given label: a fresh
// instance and scheduler seeded by xrand.Derive(seed, workload, cell,
// label).
func (e *offlineEnv) job(c int, label string) engine.Job {
	cl := e.spec.Cells[c]
	s := xrand.Derive(e.seed, e.name, cl.Name, label)
	g := e.topos[c].Graph()
	in := tm.UniformK(cl.W, cl.K).Generate(xrand.New(s), g, e.metrics[c], g.Nodes(), tm.PlaceAtRandomUser)
	return engine.Job{
		Name:           cl.Name + "#" + label,
		Instance:       in,
		Scheduler:      autoScheduler(e.topos[c], s),
		Verify:         e.verify,
		SkipLowerBound: !e.spec.LowerBound,
		Collector:      e.col,
	}
}

// warmup runs one untimed job per cell.
func (e *offlineEnv) warmup(ctx context.Context) error {
	w := *e
	w.seed = warmupSeed
	for c := range e.spec.Cells {
		if _, err := engine.Run(ctx, w.job(c, "warmup")); err != nil {
			return fmt.Errorf("warm-up %s: %w", e.spec.Cells[c].Name, err)
		}
	}
	return nil
}

// check returns why a finished job is wrong, or "".
func (e *offlineEnv) check(job engine.Job, rep *engine.Report) string {
	n := int64(job.Instance.NumTxns())
	switch {
	case rep.Makespan < 1:
		return fmt.Sprintf("makespan %d", rep.Makespan)
	case e.spec.LowerBound && (rep.Bound.Value < 1 || rep.Ratio < 1):
		return fmt.Sprintf("certified bound %d above makespan %d", rep.Bound.Value, rep.Makespan)
	case e.verify == engine.VerifyFull && rep.Counters.Executed != n:
		return fmt.Sprintf("simulator executed %d of %d transactions", rep.Counters.Executed, n)
	}
	return ""
}

// offlineRun accumulates the jobs of one measured pass, untraced or traced.
type offlineRun struct {
	*phase
	e        *offlineEnv
	tr       *tracer
	quality  struct{ makespan, txns, resp, jobs, ratio, exact, bounded, steps, moves float64 }
	digests  []uint64
	generate time.Duration
	verify   []float64
}

func (e *offlineEnv) newRun(tr *tracer) *offlineRun {
	r := &offlineRun{phase: newPhase(), e: e, tr: tr, digests: make([]uint64, len(e.spec.Cells))}
	for i := range r.digests {
		r.digests[i] = fnv.New64a().Sum64()
	}
	return r
}

// measure runs whole rounds until the budget is spent, and at least
// MinRounds of them. With a tracer every job runs twice, untraced and then
// traced, so the two passes see the same inputs at the same time.
func (e *offlineEnv) measure(ctx context.Context, budget time.Duration, tr *tracer) (*phase, *phase, error) {
	plain := e.newRun(nil)
	var traced *offlineRun
	if tr != nil {
		traced = e.newRun(tr)
	}
	runtime.GC()
	start := time.Now()
	for round := 0; round < e.spec.MinRounds || !spent(start, budget, round); round++ {
		for c := range e.spec.Cells {
			plain.job(ctx, c, round)
			if traced != nil {
				traced.job(ctx, c, round)
			}
		}
	}
	if traced == nil {
		return plain.finish(), nil, nil
	}
	return plain.finish(), traced.finish(), nil
}

// job generates cell c's job of a round, runs it and records it.
func (r *offlineRun) job(ctx context.Context, c, round int) {
	cell := r.e.spec.Cells[c].Name
	tg := time.Now()
	job := r.e.job(c, strconv.Itoa(round))
	r.generate += time.Since(tg)
	var evs []stageEvent
	if r.tr != nil {
		job.Hook = recorder(&evs)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	rep, err := engine.Run(ctx, job)
	t1 := time.Now()
	runtime.ReadMemStats(&m1)

	r.attempted++
	if err == nil {
		if why := r.e.check(job, rep); why != "" {
			err = fmt.Errorf("%s", why)
		}
	}
	if err != nil {
		r.fail(1, fmt.Sprintf("job %s: %v", job.Name, err))
		return
	}
	n := float64(job.Instance.NumTxns())
	r.units = append(r.units, unit{txns: n, wall: t1.Sub(t0)})
	r.jobMs[cell] = append(r.jobMs[cell], ms(t1.Sub(t0)))
	r.ops++
	r.alloc(&m0, &m1)

	if round < r.e.spec.MinRounds {
		q := &r.quality
		q.jobs++
		q.makespan += float64(rep.Makespan)
		q.txns += n
		for _, t := range rep.Schedule.Times {
			q.resp += float64(t)
		}
		q.ratio += rep.Ratio
		q.exact += float64(rep.Bound.ExactObjects)
		q.bounded += float64(rep.Bound.BoundedObjects)
		q.steps += float64(rep.Counters.SimSteps)
		q.moves += float64(rep.Counters.ObjectMoves)
		h := fnv.New64a()
		fmt.Fprint(h, r.digests[c], rep.Makespan, rep.Bound.Value, rep.CommCost, rep.Counters)
		r.digests[c] = h.Sum64()
	}
	if r.tr != nil {
		trace := len(r.tr.spans) + 1
		root := r.tr.add(trace, 0, "bench.job", r.tr.ns(t0), r.tr.ns(t1), false)
		r.tr.spans[root-1].Cell = cell
		r.tr.addRun(trace, root, "engine.run", "engine.", evs, &rep.Timing)
		for _, ev := range evs {
			if ev.stage == engine.StageVerify {
				r.verify = append(r.verify, float64(ev.elapsed.Nanoseconds())/1e3)
			}
		}
	}
}

// finish computes the pass's metrics.
func (r *offlineRun) finish() *phase {
	p := r.phase
	p.timing()
	q := r.quality
	p.e2e["makespan_mean"] = ratio(q.makespan, q.jobs)
	p.e2e["goodput_txn_per_step"] = ratio(q.txns, q.makespan)
	p.e2e["response_steps_mean"] = ratio(q.resp, q.txns)
	for c, d := range r.digests {
		p.digests = append(p.digests, fmt.Sprintf("%s=%016x", r.e.spec.Cells[c].Name, d))
	}
	if r.tr == nil {
		return p
	}

	st := totals(r.tr.spans)
	n := float64(st.roots)
	perJob := func(ns float64) float64 { return ratio(ns, n) / 1e6 }
	l := p.layers
	for _, c := range certifyCells {
		l["lower.measure_ms."+c] = ratio(st.cellSelf[c]["engine.measure"], float64(st.cellRoots[c])) / 1e6
	}
	l["engine.measure_ms"] = perJob(st.dur["engine.measure"])
	l["engine.measure_share"] = ratio(st.dur["engine.measure"], st.dur["bench.job"])
	l["lower.exact_objects"] = ratio(q.exact, q.jobs)
	l["lower.bounded_objects"] = ratio(q.bounded, q.jobs)
	l["lower.ratio_mean"] = ratio(q.ratio, q.jobs)
	l["depgraph.build_ms"] = perJob(st.dur["depgraph.build"])
	l["depgraph.build_share"] = ratio(st.dur["depgraph.build"], st.dur["engine.schedule"])
	l["core.schedule_self_ms"] = perJob(st.self["engine.schedule"])
	l["hier.shard_ms"] = perJob(st.dur["hier.shard"])
	l["hier.merge_ms"] = perJob(st.dur["hier.merge"])
	l["engine.verify_ms"] = perJob(st.dur["engine.verify"])
	l["sim.steps"] = ratio(q.steps, q.jobs)
	l["sim.object_moves"] = ratio(q.moves, q.jobs)
	l["engine.overhead_ms"] = perJob(st.self["engine.run"])
	l["obs.record_ms"] = perJob(st.dur["obs.record"])
	l["engine.window_busy_ms"] = perJob(st.dur["engine.run"])
	l["engine.window_busy_share"] = ratio(st.dur["engine.run"], st.dur["bench.job"])
	l["engine.window_verify_us_p50"] = percentile(r.verify, 500)
	l["engine.window_verify_us_p99"] = percentile(r.verify, 990)
	l["tm.generate_ms"] = ratio(ms(r.generate), n)
	l["bench.span_coverage_min"] = st.minCoverage
	return p
}

// spent reports whether another round, at the mean pace of the rounds
// so far, would overrun the budget.
func spent(start time.Time, budget time.Duration, rounds int) bool {
	if rounds == 0 {
		return budget <= 0
	}
	el := time.Since(start)
	return el+el/time.Duration(rounds) > budget
}
