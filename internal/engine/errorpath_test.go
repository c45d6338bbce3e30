package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"dtmsched/internal/baseline"
	"dtmsched/internal/core"
	"dtmsched/internal/graph"
	"dtmsched/internal/hier"
	"dtmsched/internal/obs"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
)

// infeasibleJob returns a job whose precomputed schedule violates
// Definition 1: two transactions on a clique both claim the shared object
// at step 1, but the second is a distance-1 transfer away.
func infeasibleJob(name string, mode VerifyMode) Job {
	topo := topology.NewClique(4)
	txns := []tm.Txn{
		{Node: 1, Objects: []tm.ObjectID{0}},
		{Node: 2, Objects: []tm.ObjectID{0}},
	}
	in := tm.NewInstance(topo.Graph(), graph.FuncMetric(topo.Dist), 1, txns, []graph.NodeID{0})
	return Job{
		Name:     name,
		Instance: in,
		Schedule: &schedule.Schedule{Times: []int64{1, 1}},
		Verify:   mode,
	}
}

// recordHook collects events goroutine-safely and reports whether a
// failing verify produced exactly one errored StageVerify event and no
// StageDone.
type recordHook struct {
	mu     sync.Mutex
	events []Event
}

func (h *recordHook) hook() Hook {
	return func(ev Event) {
		h.mu.Lock()
		h.events = append(h.events, ev)
		h.mu.Unlock()
	}
}

func (h *recordHook) checkVerifyFailure(t *testing.T, job string) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	var verifyErrs, dones int
	for _, ev := range h.events {
		if ev.Name != job {
			continue
		}
		switch ev.Stage {
		case StageVerify:
			if ev.Err == nil {
				t.Errorf("%s: StageVerify event without error", job)
			}
			if ev.Report != nil {
				t.Errorf("%s: errored verify event carries a report", job)
			}
			verifyErrs++
		case StageDone:
			dones++
		}
	}
	if verifyErrs != 1 {
		t.Errorf("%s: saw %d errored verify events, want 1", job, verifyErrs)
	}
	if dones != 0 {
		t.Errorf("%s: saw %d StageDone events after a failed verify, want 0", job, dones)
	}
}

func TestVerifyFailureEventsRun(t *testing.T) {
	for _, mode := range []VerifyMode{VerifyFull, VerifyFast} {
		t.Run(mode.String(), func(t *testing.T) {
			h := &recordHook{}
			job := infeasibleJob("bad-"+mode.String(), mode)
			job.Hook = h.hook()
			rep, err := Run(context.Background(), job)
			if err == nil || rep != nil {
				t.Fatalf("infeasible schedule passed %s verify: rep=%v err=%v", mode, rep, err)
			}
			if !strings.Contains(err.Error(), "verify stage") {
				t.Errorf("error %q does not name the verify stage", err)
			}
			h.checkVerifyFailure(t, job.Name)
		})
	}
}

func TestVerifyFailureEventsRunBatch(t *testing.T) {
	h := &recordHook{}
	col := obs.NewMetricsCollector()
	jobs := []Job{
		infeasibleJob("bad", VerifyFull),
		{Name: "good", Gen: cliqueGen(16, 4, 2, 3), Scheduler: testJobs(3)[0].Scheduler},
	}
	res, err := RunBatch(context.Background(), jobs, Options{Workers: 2, Hook: h.hook(), Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	// A verify-stage failure sets the error and nothing else: exactly one
	// of Report / Err is set.
	if res[0].Err == nil || res[0].Report != nil {
		t.Errorf("infeasible job: report=%v err=%v, want an error and no report", res[0].Report, res[0].Err)
	}
	if res[1].Err != nil || res[1].Report == nil {
		t.Errorf("good job failed: %v", res[1].Err)
	}
	h.checkVerifyFailure(t, "bad")
	// The collector counted the failure on the verify stage.
	if got := col.Registry().Counter("engine_stage_errors_total", "stage", "verify").Value(); got != 1 {
		t.Errorf("verify error counter = %d, want 1", got)
	}
	if got := col.Registry().Counter("engine_runs_total").Value(); got != 1 {
		t.Errorf("runs counter = %d, want 1 (only the good job finished)", got)
	}
}

// TestCancellationEventsAndCollector: a job cancelled between stages must
// terminate observably — the hook sees exactly one errored stage event
// carrying the context error (and no StageDone), the collector counts the
// failure against that stage, and the returned error both names the stage
// and still matches errors.Is(err, context.Canceled). Guards against the
// silent-return regression where cancelled jobs left started-but-never-
// terminated traces.
func TestCancellationEventsAndCollector(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the job dies at the first stage boundary

	h := &recordHook{}
	col := obs.NewMetricsCollector()
	job := infeasibleJob("cancelled", VerifyFull) // never reaches verify
	job.Hook = h.hook()
	job.Collector = col
	rep, err := Run(ctx, job)
	if rep != nil {
		t.Fatalf("cancelled job produced a report: %+v", rep)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "generate stage") {
		t.Errorf("error %q does not name the interrupted stage", err)
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.events) != 1 {
		t.Fatalf("hook saw %d events, want exactly 1 terminal event: %+v", len(h.events), h.events)
	}
	ev := h.events[0]
	if ev.Stage != StageGenerate || !errors.Is(ev.Err, context.Canceled) || ev.Report != nil {
		t.Errorf("terminal event = %+v, want errored StageGenerate without report", ev)
	}
	if got := col.Registry().Counter("engine_stage_errors_total", "stage", "generate").Value(); got != 1 {
		t.Errorf("generate error counter = %d, want 1", got)
	}
}

// TestCancellationMidBatchEmitsTerminalEvents: jobs cancelled while
// already inside the pipeline (not merely skipped by the batch drain)
// still emit a terminal errored stage event for the stage they were about
// to enter.
func TestCancellationMidBatchEmitsTerminalEvents(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	h := &recordHook{}
	gen := cliqueGen(16, 4, 2, 3)
	job := Job{
		Name: "mid-cancel",
		Gen: func() (*tm.Instance, error) {
			cancel() // cancel while the generate stage is running
			return gen()
		},
		Scheduler: testJobs(3)[0].Scheduler,
		Hook:      h.hook(),
	}
	rep, err := Run(ctx, job)
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("rep=%v err=%v, want nil report and context.Canceled", rep, err)
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	var terminal int
	for _, ev := range h.events {
		if ev.Stage == StageDone {
			t.Errorf("cancelled job emitted StageDone: %+v", ev)
		}
		if ev.Err != nil {
			if !errors.Is(ev.Err, context.Canceled) {
				t.Errorf("errored event carries %v, want context.Canceled", ev.Err)
			}
			terminal++
		}
	}
	if terminal != 1 {
		t.Errorf("saw %d errored events, want exactly 1 terminal event", terminal)
	}
}

// BenchmarkRunNilCollector pins the no-collector pipeline cost; compare
// with BenchmarkRunMetricsCollector to see the collector's overhead.
func BenchmarkRunNilCollector(b *testing.B) {
	benchmarkRun(b, nil)
}

func BenchmarkRunMetricsCollector(b *testing.B) {
	benchmarkRun(b, obs.NewMetricsCollector())
}

func benchmarkRun(b *testing.B, col *obs.Collector) {
	job := Job{Name: "bench", Gen: cliqueGen(32, 8, 2, 7), Scheduler: testJobs(7)[0].Scheduler, Collector: col}
	in, err := job.Gen()
	if err != nil {
		b.Fatal(err)
	}
	job.Instance, job.Gen = in, nil
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), job); err != nil {
			b.Fatal(err)
		}
	}
}

// Every scheduler family implements core.Unchecked, so every offline
// engine job under VerifyFull or VerifyFast runs the Definition 1 check
// once, in the Verify stage.
var _ = []core.Unchecked{
	&core.Greedy{}, &core.Line{}, &core.Grid{}, &core.Cluster{}, &core.Star{},
	baseline.Sequential{}, baseline.List{}, baseline.Random{}, &hier.Scheduler{},
}

// corruptScheduler runs a real scheduler unchecked and then pulls every
// transaction to step 1: an infeasible core result on any instance where
// two transactions share an object. Its Schedule is core.Checked, as every
// scheduler's is, and it counts the calls to each entry point.
type corruptScheduler struct {
	inner              core.Unchecked
	checked, unchecked int
}

func (c *corruptScheduler) Name() string { return "corrupt" }

func (c *corruptScheduler) Schedule(in *tm.Instance) (*core.Result, error) {
	c.checked++
	return core.Checked(c, in)
}

func (c *corruptScheduler) ScheduleUnchecked(in *tm.Instance) (*core.Result, error) {
	c.unchecked++
	r, err := c.inner.ScheduleUnchecked(in)
	if err != nil {
		return nil, err
	}
	for i := range r.Schedule.Times {
		r.Schedule.Times[i] = 1
	}
	r.Makespan = 1
	return r, nil
}

// TestInfeasibleCoreResultRejected: an infeasible core result is rejected
// on every path by exactly one check. Under VerifyFull and VerifyFast the
// engine runs the scheduler unchecked and its Verify stage rejects; under
// VerifyOff the scheduler's own check in Schedule does; a direct call
// goes through that check too.
func TestInfeasibleCoreResultRejected(t *testing.T) {
	gen := cliqueGen(16, 4, 2, 3) // 16 transactions over 4 objects
	for _, tc := range []struct {
		mode    VerifyMode
		stage   string
		checked int
	}{
		{VerifyFull, "verify stage", 0},
		{VerifyFast, "verify stage", 0},
		{VerifyOff, "schedule stage", 1},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			s := &corruptScheduler{inner: &core.Greedy{}}
			rep, err := Run(context.Background(), Job{Name: "corrupt", Gen: gen, Scheduler: s, Verify: tc.mode})
			if err == nil || rep != nil {
				t.Fatalf("infeasible core result passed: rep=%v err=%v", rep, err)
			}
			if !strings.Contains(err.Error(), tc.stage) || !strings.Contains(err.Error(), "infeasible") {
				t.Errorf("error %q is not an infeasibility from the %s", err, tc.stage)
			}
			if s.checked != tc.checked || s.unchecked != 1 {
				t.Errorf("Schedule ran %d times and ScheduleUnchecked %d, want %d and 1", s.checked, s.unchecked, tc.checked)
			}
		})
	}

	in, err := gen()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&corruptScheduler{inner: &core.Greedy{}}).Schedule(in); err == nil || !strings.Contains(err.Error(), "infeasible schedule") {
		t.Fatalf("direct Schedule call accepted an infeasible core result: %v", err)
	}
}
