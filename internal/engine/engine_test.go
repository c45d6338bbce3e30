package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dtmsched/internal/baseline"
	"dtmsched/internal/core"
	"dtmsched/internal/graph"
	"dtmsched/internal/hier"
	"dtmsched/internal/obs"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// cliqueGen returns a Gen producing a deterministic clique instance.
func cliqueGen(n, w, k int, seed int64) func() (*tm.Instance, error) {
	return func() (*tm.Instance, error) {
		topo := topology.NewClique(n)
		rng := xrand.NewDerived(seed, "engine-test", fmt.Sprint(n))
		in := tm.UniformK(w, k).Generate(rng, topo.Graph(),
			graph.FuncMetric(topo.Dist), topo.Graph().Nodes(), tm.PlaceAtRandomUser)
		return in, nil
	}
}

// testJobs builds a fresh multi-algorithm job list. A factory, not a
// fixture: randomized schedulers carry their own rng state, so every run
// needs fresh jobs.
func testJobs(seed int64) []Job {
	var jobs []Job
	for i := 0; i < 3; i++ {
		n := 24 + 8*i
		jobs = append(jobs,
			Job{Name: fmt.Sprintf("greedy/%d", n), Gen: cliqueGen(n, n/4, 2, seed), Scheduler: &core.Greedy{}},
			Job{Name: fmt.Sprintf("seq/%d", n), Gen: cliqueGen(n, n/4, 2, seed), Scheduler: baseline.Sequential{}},
			Job{Name: fmt.Sprintf("list/%d", n), Gen: cliqueGen(n, n/4, 2, seed), Scheduler: baseline.List{}},
			Job{Name: fmt.Sprintf("rand/%d", n), Gen: cliqueGen(n, n/4, 2, seed),
				Scheduler: baseline.Random{Rng: xrand.NewDerived(seed, "rand", fmt.Sprint(n))}},
		)
	}
	return jobs
}

// marshalStripped renders reports as JSON with the non-deterministic
// timing fields zeroed, for byte-identical comparison.
func marshalStripped(t *testing.T, reports []*Report) []byte {
	t.Helper()
	stripped := make([]Report, len(reports))
	for i, r := range reports {
		stripped[i] = *r
		stripped[i].Timing = Timing{}
	}
	b, err := json.Marshal(stripped)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunFullPipeline checks a single fully verified run end to end:
// algorithm name, feasible makespan, non-zero per-stage timings, and
// non-zero simulator counters.
func TestRunFullPipeline(t *testing.T) {
	rep, err := Run(context.Background(), Job{
		Name: "one", Gen: cliqueGen(32, 8, 2, 7), Scheduler: &core.Greedy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != "greedy" {
		t.Errorf("algorithm = %q, want greedy", rep.Algorithm)
	}
	if rep.Makespan < rep.Bound.Value || rep.Bound.Value <= 0 {
		t.Errorf("makespan %d vs bound %d: infeasible ordering", rep.Makespan, rep.Bound.Value)
	}
	if rep.Ratio < 1 {
		t.Errorf("ratio %.2f < 1", rep.Ratio)
	}
	tm := rep.Timing
	for _, st := range []struct {
		name string
		d    time.Duration
	}{{"generate", tm.Generate}, {"schedule", tm.Schedule}, {"verify", tm.Verify}, {"measure", tm.Measure}, {"total", tm.Total}} {
		if st.d <= 0 {
			t.Errorf("timing %s = %v, want > 0", st.name, st.d)
		}
	}
	c := rep.Counters
	if c.SimSteps <= 0 || c.ObjectMoves <= 0 || c.Executed <= 0 {
		t.Errorf("counters %+v: all must be positive under VerifyFull", c)
	}
	if c.SimSteps != rep.Makespan {
		t.Errorf("SimSteps %d != makespan %d", c.SimSteps, rep.Makespan)
	}
	if rep.Schedule == nil {
		t.Error("report carries no schedule")
	}
}

// TestDepGraphBuildTiming checks the hand-off of conflict-graph build
// instrumentation: the scheduler's wall-clock depgraph_build_ns stat moves
// into Timing.DepGraphBuild (keeping Report.Stats deterministic), the
// deterministic build stats stay, and the collector's registry picks up the
// depgraph_* counters.
func TestDepGraphBuildTiming(t *testing.T) {
	col := obs.NewMetricsCollector()
	rep, err := Run(context.Background(), Job{
		Name: "g", Gen: cliqueGen(32, 8, 2, 7), Scheduler: &core.Greedy{}, Collector: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timing.DepGraphBuild <= 0 {
		t.Errorf("Timing.DepGraphBuild = %v, want > 0 for greedy", rep.Timing.DepGraphBuild)
	}
	if rep.Timing.DepGraphBuild > rep.Timing.Schedule {
		t.Errorf("build time %v exceeds whole schedule stage %v", rep.Timing.DepGraphBuild, rep.Timing.Schedule)
	}
	if _, ok := rep.Stats["depgraph_build_ns"]; ok {
		t.Error("wall-clock depgraph_build_ns leaked into deterministic Stats")
	}
	if rep.Stats["depgraph_builds"] != 1 || rep.Stats["depgraph_edges"] <= 0 {
		t.Errorf("build stats missing: %v", rep.Stats)
	}
	reg := col.Registry()
	if got := reg.Counter("depgraph_builds_total").Value(); got != 1 {
		t.Errorf("depgraph_builds_total = %d, want 1", got)
	}
	if reg.Counter("depgraph_build_ns_total").Value() <= 0 || reg.Counter("depgraph_edges_total").Value() <= 0 {
		t.Error("registry missing depgraph build counters")
	}

	// A baseline scheduler builds no conflict graph: no timing, no counters.
	rep2, err := Run(context.Background(), Job{
		Name: "b", Gen: cliqueGen(32, 8, 2, 7), Scheduler: baseline.Sequential{}, Collector: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Timing.DepGraphBuild != 0 {
		t.Errorf("baseline DepGraphBuild = %v, want 0", rep2.Timing.DepGraphBuild)
	}
	if got := reg.Counter("depgraph_builds_total").Value(); got != 1 {
		t.Errorf("baseline incremented depgraph_builds_total to %d", got)
	}
}

// TestVerifyModes checks the policy ladder: same makespan everywhere,
// simulator counters and communication cost only under VerifyFull.
func TestVerifyModes(t *testing.T) {
	var reps [3]*Report
	for i, mode := range []VerifyMode{VerifyFull, VerifyFast, VerifyOff} {
		rep, err := Run(context.Background(), Job{
			Name: mode.String(), Gen: cliqueGen(32, 8, 2, 7), Scheduler: &core.Greedy{}, Verify: mode,
		})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		reps[i] = rep
	}
	full, fast, off := reps[0], reps[1], reps[2]
	if full.Makespan != fast.Makespan || fast.Makespan != off.Makespan {
		t.Errorf("makespans diverge across verify modes: %d / %d / %d", full.Makespan, fast.Makespan, off.Makespan)
	}
	if full.CommCost <= 0 || full.Counters.SimSteps <= 0 {
		t.Errorf("VerifyFull lost its measurements: %+v", full.Counters)
	}
	for _, r := range []*Report{fast, off} {
		if r.CommCost != 0 || r.Counters != (Counters{}) {
			t.Errorf("%s: unexpected simulator output %d / %+v", r.Verify, r.CommCost, r.Counters)
		}
	}
}

// TestRunBatchDeterminism requires byte-identical reports (timings
// stripped) for every worker count, including the sequential path.
func TestRunBatchDeterminism(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		results, err := RunBatch(context.Background(), testJobs(42), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		reports, err := Reports(results)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := marshalStripped(t, reports)
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Errorf("workers=%d: reports differ from sequential path", workers)
		}
	}
}

// TestRunBatchOrdering checks results come back in job order with echoed
// names and indexes, regardless of completion order.
func TestRunBatchOrdering(t *testing.T) {
	jobs := testJobs(3)
	results, err := RunBatch(context.Background(), jobs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Index != i || r.Name != jobs[i].Name {
			t.Errorf("result %d: index %d name %q, want %d %q", i, r.Index, r.Name, i, jobs[i].Name)
		}
	}
}

// panicScheduler implements core.Scheduler by panicking.
type panicScheduler struct{}

func (panicScheduler) Name() string { return "panic" }
func (panicScheduler) Schedule(in *tm.Instance) (*core.Result, error) {
	panic("scheduler bug")
}

// TestRunBatchPanicRecovery: a panicking scheduler fails its own job and
// leaves the rest of the batch intact.
func TestRunBatchPanicRecovery(t *testing.T) {
	jobs := []Job{
		{Name: "ok1", Gen: cliqueGen(24, 6, 2, 1), Scheduler: &core.Greedy{}},
		{Name: "boom", Gen: cliqueGen(24, 6, 2, 1), Scheduler: panicScheduler{}},
		{Name: "ok2", Gen: cliqueGen(24, 6, 2, 1), Scheduler: baseline.List{}},
	}
	results, err := RunBatch(context.Background(), jobs, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy jobs failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Errorf("panicking job error = %v, want recovered panic", results[1].Err)
	}
	if results[1].Report != nil {
		t.Error("panicking job produced a report")
	}
}

// goroutineID returns the calling goroutine's number, read from the
// "goroutine N [running]:" header of its stack trace.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestRunBatchOneWorkerRunsOnCaller: a one-worker batch runs every job on
// the calling goroutine, so serving, which runs one such batch per
// window, starts no goroutine per window. A panic there still fails only
// its own job.
func TestRunBatchOneWorkerRunsOnCaller(t *testing.T) {
	caller := goroutineID()
	var ran []string
	hook := func(ev Event) { ran = append(ran, goroutineID()) }
	jobs := []Job{
		{Name: "ok1", Gen: cliqueGen(16, 4, 2, 1), Scheduler: &core.Greedy{}},
		{Name: "boom", Gen: cliqueGen(16, 4, 2, 1), Scheduler: panicScheduler{}},
		{Name: "ok2", Gen: cliqueGen(16, 4, 2, 1), Scheduler: &core.Greedy{}},
	}
	results, err := RunBatch(context.Background(), jobs, Options{Workers: 1, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy jobs failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Errorf("panicking job error = %v, want recovered panic", results[1].Err)
	}
	if len(ran) == 0 {
		t.Fatal("hook never ran")
	}
	for _, id := range ran {
		if id != caller {
			t.Fatalf("a job stage ran on goroutine %s, want the caller's %s", id, caller)
		}
	}
}

// TestRunBatchCancellation: cancelling mid-batch returns promptly with
// partial results, marks unstarted jobs with the context error, and leaks
// no goroutines.
func TestRunBatchCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Slow jobs: each Gen sleeps, so the batch takes long enough for a
	// cancel to land in the middle. The first completed job triggers it.
	var once sync.Once
	const jobs = 32
	slow := make([]Job, jobs)
	for i := range slow {
		gen := cliqueGen(24, 6, 2, int64(i))
		slow[i] = Job{
			Name: fmt.Sprintf("slow/%d", i),
			Gen: func() (*tm.Instance, error) {
				time.Sleep(5 * time.Millisecond)
				return gen()
			},
			Scheduler: &core.Greedy{},
			Hook: func(ev Event) {
				if ev.Stage == StageDone {
					once.Do(cancel)
				}
			},
		}
	}
	start := time.Now()
	results, err := RunBatch(ctx, slow, Options{Workers: 2})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancelled batch took %v, want prompt return", elapsed)
	}
	var done, cancelled int
	for _, r := range results {
		switch {
		case r.Err == nil && r.Report != nil:
			done++
		case errors.Is(r.Err, context.Canceled):
			cancelled++
		default:
			t.Errorf("job %d: unexpected state report=%v err=%v", r.Index, r.Report != nil, r.Err)
		}
	}
	if done == 0 {
		t.Error("no job completed before cancellation")
	}
	if cancelled == 0 {
		t.Error("no job was cancelled")
	}

	// All workers must be joined: give the runtime a moment, then check
	// we are back at (or below) the starting goroutine count.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestHookStageOrder checks every successful job emits its five stage
// events in pipeline order, with the report attached to StageDone.
func TestHookStageOrder(t *testing.T) {
	var mu sync.Mutex
	events := map[string][]Event{}
	hook := func(ev Event) {
		mu.Lock()
		events[ev.Name] = append(events[ev.Name], ev)
		mu.Unlock()
	}
	jobs := testJobs(5)
	results, err := RunBatch(context.Background(), jobs, Options{Workers: 4, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reports(results); err != nil {
		t.Fatal(err)
	}
	want := []Stage{StageGenerate, StageSchedule, StageVerify, StageMeasure, StageDone}
	for _, job := range jobs {
		evs := events[job.Name]
		if len(evs) != len(want) {
			t.Fatalf("%s: %d events, want %d", job.Name, len(evs), len(want))
		}
		for i, ev := range evs {
			if ev.Stage != want[i] {
				t.Errorf("%s: event %d stage %s, want %s", job.Name, i, ev.Stage, want[i])
			}
		}
		if evs[len(evs)-1].Report == nil {
			t.Errorf("%s: StageDone carries no report", job.Name)
		}
	}
}

// TestPrecomputedSchedule runs the pipeline on a schedule produced outside
// it, as the experiment harness does for the Section 8 constructions.
func TestPrecomputedSchedule(t *testing.T) {
	in, err := cliqueGen(24, 6, 2, 9)()
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&core.Greedy{}).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Job{
		Name: "pre", Instance: in, Schedule: res.Schedule, Algorithm: "handmade",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != "handmade" || rep.Makespan != res.Makespan {
		t.Errorf("report %q/%d, want handmade/%d", rep.Algorithm, rep.Makespan, res.Makespan)
	}
}

// TestJobValidation covers the misconfiguration errors.
func TestJobValidation(t *testing.T) {
	if _, err := Run(context.Background(), Job{Name: "no-input", Scheduler: &core.Greedy{}}); err == nil {
		t.Error("job without Instance/Gen must fail")
	}
	in, _ := cliqueGen(24, 6, 2, 9)()
	if _, err := Run(context.Background(), Job{Name: "no-sched", Instance: in}); err == nil {
		t.Error("job without Scheduler/Schedule must fail")
	}
	// A precomputed schedule must give one time per transaction, even
	// under VerifyOff with a collector (whose travel walk reads it).
	for _, n := range []int{in.NumTxns() - 1, in.NumTxns() + 1} {
		if _, err := Run(context.Background(), Job{Name: "bad-len", Instance: in, Schedule: schedule.New(n),
			Verify: VerifyOff, SkipLowerBound: true, Collector: obs.NewMetricsCollector()}); err == nil {
			t.Errorf("schedule of %d times for %d transactions must fail", n, in.NumTxns())
		}
	}
	genErr := errors.New("generator exploded")
	_, err := Run(context.Background(), Job{Name: "gen-fail",
		Gen: func() (*tm.Instance, error) { return nil, genErr }, Scheduler: &core.Greedy{}})
	if !errors.Is(err, genErr) {
		t.Errorf("gen error not propagated: %v", err)
	}
}

// TestSharedInstance exercises many concurrent jobs over one instance:
// lazy indexes (tm users, graph shortest-path cache) must be safe, and
// the reports must agree with a solo run. Run under -race this is the
// regression test for the shared-instance hazards.
func TestSharedInstance(t *testing.T) {
	topo := topology.NewSquareGrid(8) // graph metric path queries hit the sp cache
	rng := xrand.NewDerived(11, "shared")
	in := tm.UniformK(16, 2).Generate(rng, topo.Graph(), topo.Graph(), topo.Graph().Nodes(), tm.PlaceAtRandomUser)

	solo, err := Run(context.Background(), Job{Name: "solo", Instance: in, Scheduler: baseline.List{}})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("shared/%d", i), Instance: in, Scheduler: baseline.List{}}
	}
	results, err := RunBatch(context.Background(), jobs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := Reports(results)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Makespan != solo.Makespan || r.CommCost != solo.CommCost {
			t.Errorf("%s: %d/%d, want %d/%d", r.Name, r.Makespan, r.CommCost, solo.Makespan, solo.CommCost)
		}
	}
}

// TestHierTimingExtraction checks the hierarchical scheduler's phase wall
// clocks are moved out of the deterministic Stats map into Timing, and the
// hier registry metrics fill in.
func TestHierTimingExtraction(t *testing.T) {
	col := obs.NewMetricsCollector()
	fc := topology.NewFogCloud([]int{4, 8}, []int64{8, 1})
	gen := func() (*tm.Instance, error) {
		rng := xrand.NewDerived(3, "engine-test", "hier")
		in := tm.UniformK(32, 2).Generate(rng, fc.Graph(), fc, fc.Graph().Nodes(), tm.PlaceAtRandomUser)
		return in, nil
	}
	rep, err := Run(context.Background(), Job{
		Name: "h", Gen: gen, Scheduler: &hier.Scheduler{Topo: fc}, Collector: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"hier_shard_wall_ns", "hier_merge_wall_ns"} {
		if _, ok := rep.Stats[key]; ok {
			t.Errorf("wall-clock %s leaked into deterministic Stats", key)
		}
	}
	if rep.Timing.HierShard <= 0 {
		t.Errorf("Timing.HierShard = %v, want > 0", rep.Timing.HierShard)
	}
	if rep.Stats["hier_shards"] != 4 {
		t.Errorf("hier_shards = %d, want 4", rep.Stats["hier_shards"])
	}
	reg := col.Registry()
	if got := reg.Counter("hier_runs_total").Value(); got != 1 {
		t.Errorf("hier_runs_total = %d, want 1", got)
	}
	if got := reg.Counter("hier_local_txns_total").Value() + reg.Counter("hier_cross_txns_total").Value(); got != int64(fc.Graph().NumNodes()) {
		t.Errorf("local+cross txn totals = %d, want %d", got, fc.Graph().NumNodes())
	}

	// Non-hier schedulers leave the hier timing and metrics untouched.
	rep2, err := Run(context.Background(), Job{
		Name: "g", Gen: cliqueGen(32, 8, 2, 7), Scheduler: &core.Greedy{}, Collector: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Timing.HierShard != 0 || rep2.Timing.HierMerge != 0 {
		t.Errorf("greedy run carries hier timing: %+v", rep2.Timing)
	}
	if got := reg.Counter("hier_runs_total").Value(); got != 1 {
		t.Errorf("greedy run incremented hier_runs_total to %d", got)
	}
}
