package obs_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"dtmsched/internal/analysis"
	"dtmsched/internal/baseline"
	"dtmsched/internal/core"
	"dtmsched/internal/engine"
	"dtmsched/internal/faults"
	"dtmsched/internal/graph"
	"dtmsched/internal/hier"
	"dtmsched/internal/obs"
	"dtmsched/internal/schedule"
	"dtmsched/internal/sim"
	"dtmsched/internal/stream"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// The tests in this file drive the collector through its publishers —
// the engine and the streaming service — and check what lands in its
// registry and traces.

// lineJob is a precomputed engine job on a 6-node line with one object
// passed down the line: home at node 0, requested by transactions at
// nodes 1, 3, 5 committing at steps 1, 3, 6.
func lineJob(col *obs.Collector) engine.Job {
	topo := topology.NewLine(6)
	txns := []tm.Txn{
		{Node: 1, Objects: []tm.ObjectID{0}},
		{Node: 3, Objects: []tm.ObjectID{0}},
		{Node: 5, Objects: []tm.ObjectID{0}},
	}
	in := tm.NewInstance(topo.Graph(), graph.FuncMetric(topo.Dist), 1, txns, []graph.NodeID{0})
	return engine.Job{
		Name: "line-run", Instance: in, Schedule: &schedule.Schedule{Times: []int64{1, 3, 6}},
		Algorithm: "test-alg", Verify: engine.VerifyFast, SkipLowerBound: true, Collector: col,
	}
}

func gridInstance(seed int64) *tm.Instance {
	topo := topology.NewSquareGrid(6)
	return tm.UniformK(12, 2).Generate(xrand.NewDerived(seed, "obs-publish-test"), topo.Graph(),
		graph.FuncMetric(topo.Dist), topo.Graph().Nodes(), tm.PlaceAtRandomUser)
}

func run(t *testing.T, job engine.Job) *engine.Report {
	t.Helper()
	rep, err := engine.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCollectorRecordRun(t *testing.T) {
	c := obs.NewCollector()
	run(t, lineJob(c))

	reg := c.Registry()
	if got := reg.Counter("engine_runs_total").Value(); got != 1 {
		t.Errorf("runs = %d, want 1", got)
	}
	if got := reg.Counter("engine_runs_total", "algorithm", "test-alg").Value(); got != 1 {
		t.Errorf("per-algorithm runs = %d, want 1", got)
	}
	lat := reg.Histogram("txn_latency_steps")
	if lat.Count() != 3 || lat.Sum() != 10 {
		t.Errorf("latency histogram count=%d sum=%d, want 3/10", lat.Count(), lat.Sum())
	}
	travel := reg.Histogram("object_travel_steps")
	if travel.Count() != 1 || travel.Sum() != 5 {
		t.Errorf("travel histogram count=%d sum=%d, want 1/5", travel.Count(), travel.Sum())
	}
	if got := reg.Gauge("makespan_steps_max").Value(); got != 6 {
		t.Errorf("makespan gauge = %d, want 6", got)
	}
	if got := reg.Gauge("queue_depth_peak").Value(); got != 1 {
		t.Errorf("queue depth peak = %d, want 1 (the last hop waits a step)", got)
	}

	var jsonl, chrome, metrics bytes.Buffer
	if err := c.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ev":"run"`, `"ev":"stage"`, `"ev":"move"`, `"ev":"exec"`, `"ev":"metrics"`, `"algorithm":"test-alg"`} {
		if !strings.Contains(jsonl.String(), want) {
			t.Errorf("JSONL missing %s", want)
		}
	}
	if strings.Contains(jsonl.String(), "wall_us") {
		t.Error("JSONL leaked wall-clock times")
	}
	if err := c.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"traceEvents"`, `"ph":"M"`, `"ph":"X"`, `"cat":"move"`, `"cat":"txn"`, `"cat":"wait"`} {
		if !strings.Contains(chrome.String(), want) {
			t.Errorf("Chrome trace missing %s", want)
		}
	}
	if err := c.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"txn_latency_steps", "object_travel_steps", "queue_depth", "link_utilization", "critical_path"} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics snapshot missing %s", want)
		}
	}

	// A metrics-only collector observes the same travel without traces.
	m := obs.NewMetricsCollector()
	run(t, lineJob(m))
	if h := m.Registry().Histogram("object_travel_steps"); h.Count() != 1 || h.Sum() != 5 {
		t.Errorf("metrics-only travel histogram count=%d sum=%d, want 1/5", h.Count(), h.Sum())
	}
}

// TestDeriveMatchesSimulator: the spans the collector derives from the
// schedule (VerifyFast) must equal the ones it reads from the
// simulator's event stream (VerifyFull), and the derived travel must
// agree with what the simulator measures.
func TestDeriveMatchesSimulator(t *testing.T) {
	in := gridInstance(7)
	res, err := baseline.List{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Schedule
	simRes := sim.MustRun(in, s, sim.Options{Trace: true})
	m, moves, execs := analysis.Derive(in, s)
	if m.TotalTravel != simRes.CommCost {
		t.Errorf("derived travel %d != simulator comm cost %d", m.TotalTravel, simRes.CommCost)
	}
	for o, d := range m.ObjectTravel {
		if d != simRes.ObjectDistance[o] {
			t.Errorf("object %d travel %d != simulator %d", o, d, simRes.ObjectDistance[o])
		}
	}
	if int64(len(moves)) != simRes.Moves || len(execs) != simRes.Executed {
		t.Errorf("derived %d moves / %d execs != simulator %d / %d", len(moves), len(execs), simRes.Moves, simRes.Executed)
	}

	export := func(verify engine.VerifyMode) string {
		col := obs.NewCollector()
		run(t, engine.Job{Name: "grid", Instance: in, Schedule: s, Verify: verify, SkipLowerBound: true, Collector: col})
		var buf bytes.Buffer
		if err := col.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if fromEvents, derived := export(engine.VerifyFull), export(engine.VerifyFast); fromEvents != derived {
		t.Errorf("trace from simulator events differs from the derived trace:\n%s\nvs\n%s", fromEvents, derived)
	}
}

func TestCollectorDepGraphBuild(t *testing.T) {
	c := obs.NewMetricsCollector()
	// A baseline builds no conflict graph: no depgraph series.
	run(t, engine.Job{Name: "b", Instance: gridInstance(1), Scheduler: baseline.Sequential{}, Collector: c})
	for _, s := range c.Registry().Snapshot() {
		if strings.HasPrefix(s.Name, "depgraph_") {
			t.Errorf("baseline run published %s", s.Name)
		}
	}
	var edges, gamma, hmax int64
	for seed := int64(1); seed <= 2; seed++ {
		rep := run(t, engine.Job{Name: "g", Instance: gridInstance(seed), Scheduler: &core.Greedy{}, Collector: c})
		edges += rep.Stats["depgraph_edges"]
		gamma += rep.Stats["gamma"]
		hmax += rep.Stats["hmax"]
	}
	reg := c.Registry()
	if got := reg.Counter("depgraph_builds_total").Value(); got != 2 {
		t.Errorf("builds total = %d, want 2", got)
	}
	if got := reg.Counter("depgraph_edges_total").Value(); got != edges {
		t.Errorf("edges total = %d, want %d", got, edges)
	}
	if got := reg.Counter("depgraph_build_ns_total").Value(); got <= 0 {
		t.Errorf("build ns total = %d, want > 0", got)
	}
	for name, want := range map[string]int64{"depgraph_edges": edges, "depgraph_gamma": gamma, "depgraph_hmax": hmax} {
		if h := reg.Histogram(name); h.Count() != 2 || h.Sum() != want {
			t.Errorf("%s histogram count=%d sum=%d, want 2/%d", name, h.Count(), h.Sum(), want)
		}
	}
	if h := reg.Histogram("depgraph_build_us"); h.Count() != 2 {
		t.Errorf("build_us histogram count=%d, want 2", h.Count())
	}
}

func TestCollectorHier(t *testing.T) {
	c := obs.NewMetricsCollector()
	fc := topology.NewFogCloud([]int{4, 8}, []int64{8, 1})
	in := tm.UniformK(32, 2).Generate(xrand.NewDerived(3, "obs-publish-test", "hier"),
		fc.Graph(), fc, fc.Graph().Nodes(), tm.PlaceAtRandomUser)
	rep := run(t, engine.Job{Name: "h", Instance: in, Scheduler: &hier.Scheduler{Topo: fc}, Collector: c})
	reg := c.Registry()
	local, cross := rep.Stats["hier_local_txns"], rep.Stats["hier_cross_txns"]
	for name, want := range map[string]int64{
		"hier_runs_total":          1,
		"hier_local_txns_total":    local,
		"hier_cross_txns_total":    cross,
		"hier_shard_wall_ns_total": rep.Timing.HierShard.Nanoseconds(),
		"hier_merge_wall_ns_total": rep.Timing.HierMerge.Nanoseconds(),
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if h := reg.Histogram("hier_shards"); h.Count() != 1 || h.Sum() != rep.Stats["hier_shards"] {
		t.Errorf("hier_shards histogram count=%d sum=%d, want 1/%d", h.Count(), h.Sum(), rep.Stats["hier_shards"])
	}
	if h := reg.Histogram("hier_cross_fraction_pct"); h.Count() != 1 || h.Sum() != 100*cross/(local+cross) {
		t.Errorf("cross fraction histogram count=%d sum=%d, want 1/%d", h.Count(), h.Sum(), 100*cross/(local+cross))
	}
}

// flakyScheduler fails its first call, then schedules greedily.
type flakyScheduler struct{ calls atomic.Int32 }

func (f *flakyScheduler) Name() string { return "flaky" }
func (f *flakyScheduler) Schedule(in *tm.Instance) (*core.Result, error) {
	if f.calls.Add(1) == 1 {
		return nil, errors.New("transient")
	}
	return (&core.Greedy{}).Schedule(in)
}

func TestCollectorFaultMetrics(t *testing.T) {
	c := obs.NewMetricsCollector()
	in := gridInstance(5)
	s := schedule.New(in.NumTxns())
	for i := range s.Times {
		s.Times[i] = int64(i+1) * int64(in.G.NumNodes())
	}
	plan := faults.MustNew(faults.Config{
		Seed: 11, Horizon: s.Makespan(),
		LinkDownRate: 0.1, LinkSlowRate: 0.1, CrashRate: 0.05, DropRate: 0.05,
	}, in.G)
	rep := run(t, engine.Job{Name: "faulty", Instance: in, Schedule: s, Faults: plan, SkipLowerBound: true, Collector: c})
	run(t, engine.Job{Name: "clean", Instance: in, Schedule: s, SkipLowerBound: true, Collector: c})
	_, err := engine.RunBatch(context.Background(), []engine.Job{{Name: "flaky", Instance: in, Scheduler: &flakyScheduler{}}},
		engine.Options{Collector: c, Retry: engine.RetryPolicy{MaxAttempts: 2, Backoff: 1}})
	if err != nil {
		t.Fatal(err)
	}
	fr := rep.Fault
	reg := c.Registry()
	for name, want := range map[string]int64{
		"fault_runs_total":             1,
		"fault_retries_total":          fr.Retries,
		"fault_reroutes_total":         fr.Reroutes,
		"fault_deferred_commits_total": fr.DeferredCommits,
		"fault_wasted_comm_total":      fr.WastedComm,
		"engine_retries_total":         1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if h := reg.Histogram("fault_inflation_pct"); h.Count() != 1 || h.Sum() != int64(fr.Inflation*100+0.5) {
		t.Errorf("fault_inflation_pct count=%d sum=%d, want 1/%d", h.Count(), h.Sum(), int64(fr.Inflation*100+0.5))
	}
}

func TestCollectorStreamFaultMetrics(t *testing.T) {
	topo := topology.NewClique(16)
	g := topo.Graph()
	home := make([]graph.NodeID, 8)
	for o := range home {
		home[o] = g.Nodes()[o]
	}
	inj, err := stream.NewChaos(stream.ChaosConfig{Rate: 0.25, Seed: 99, Horizon: 1200, Chunk: 64}, g)
	if err != nil {
		t.Fatal(err)
	}
	c := obs.NewMetricsCollector()
	res, err := stream.Serve(context.Background(), stream.Config{
		G: g, Metric: graph.FuncMetric(topo.Dist), NumObjects: len(home), Home: home,
		Source:    stream.NewGenerator(xrand.NewDerived(5, "obs-publish-test", "stream"), g, tm.UniformK(len(home), 2), 0.8, 200),
		Verify:    engine.VerifyFast,
		Faults:    inj,
		Collector: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requeued == 0 {
		t.Fatal("chaos never requeued — pick a harsher plan")
	}
	reg := c.Registry()
	for name, want := range map[string]int64{
		"stream_admitted_total":           res.Admitted,
		"stream_committed_total":          res.Committed,
		"stream_windows_total":            int64(res.Windows),
		"stream_requeue_total":            res.Requeued,
		"stream_shed_total":               res.Shed,
		"stream_breaker_trips_total":      int64(res.BreakerTrips),
		"stream_breaker_recoveries_total": int64(res.BreakerRecoveries),
		"stream_fault_windows_total":      int64(res.Windows),
		"stream_fault_degraded_total":     int64(res.DegradedWindows),
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("stream_requeue_depth_peak").Value(); got != int64(res.RequeuePeak) {
		t.Errorf("requeue depth peak = %d, want %d", got, res.RequeuePeak)
	}
	if got := reg.Gauge("stream_queue_depth_peak").Value(); got != int64(res.QueuePeak) {
		t.Errorf("queue depth peak = %d, want %d", got, res.QueuePeak)
	}
	if h := reg.Histogram("stream_fault_inflation_pct"); h.Count() != int64(res.Windows) {
		t.Errorf("inflation histogram count=%d, want one per window (%d)", h.Count(), res.Windows)
	}
	if h := reg.Histogram("stream_txn_response_steps"); h.Count() != res.Committed {
		t.Errorf("response histogram count=%d, want one per commit (%d)", h.Count(), res.Committed)
	}
}
