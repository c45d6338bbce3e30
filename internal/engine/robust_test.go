package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dtmsched/internal/core"
	"dtmsched/internal/faults"
	"dtmsched/internal/obs"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// faultTestInstance builds a deterministic grid workload plus the
// trivially feasible serial schedule (txn i commits at (i+1)·n).
func faultTestInstance(side int, seed int64) (*tm.Instance, *schedule.Schedule) {
	g := topology.NewSquareGrid(side).Graph()
	rng := xrand.NewDerived(seed, "engine-fault-test")
	in := tm.UniformK(8, 2).Generate(rng, g, nil, g.Nodes(), tm.PlaceAtRandomUser)
	n := int64(g.NumNodes())
	s := schedule.New(in.NumTxns())
	for i := range s.Times {
		s.Times[i] = int64(i+1) * n
	}
	return in, s
}

func TestRunWithFaultsReportsRecovery(t *testing.T) {
	in, s := faultTestInstance(5, 3)
	plan := faults.MustNew(faults.Config{
		Seed: 11, Horizon: s.Makespan(),
		LinkDownRate: 0.1, LinkSlowRate: 0.1, CrashRate: 0.05, DropRate: 0.05,
	}, in.G)
	col := obs.NewMetricsCollector()
	rep, err := Run(context.Background(), Job{
		Name: "faulty", Instance: in, Schedule: s, Faults: plan, Collector: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fault == nil {
		t.Fatal("fault-injected run produced no fault report")
	}
	if rep.Fault.BaselineMakespan != s.Makespan() || rep.Fault.Inflation < 1.0 {
		t.Errorf("fault report inconsistent: %v", rep.Fault)
	}
	// Report.Makespan stays the schedule's (planned) makespan; the
	// recovered one is the fault report's and the simulator counters'.
	if rep.Makespan != s.Makespan() {
		t.Errorf("Makespan = %d, want planned %d", rep.Makespan, s.Makespan())
	}
	if rep.Counters.SimSteps != rep.Fault.Makespan {
		t.Errorf("SimSteps = %d, want recovered makespan %d", rep.Counters.SimSteps, rep.Fault.Makespan)
	}
	if got := col.Registry().Counter("fault_runs_total").Value(); got != 1 {
		t.Errorf("fault_runs_total = %d, want 1", got)
	}
	// A fault-free job records no fault report and no fault metrics.
	rep2, err := Run(context.Background(), Job{Name: "clean", Instance: in, Schedule: s, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Fault != nil {
		t.Errorf("fault-free run carries a fault report: %v", rep2.Fault)
	}
	if got := col.Registry().Counter("fault_runs_total").Value(); got != 1 {
		t.Errorf("fault_runs_total = %d after clean run, want still 1", got)
	}
}

func TestBatchFaultReportsDeterministicAcrossWorkers(t *testing.T) {
	// The same fault-injected batch must produce byte-identical fault
	// reports at every worker count.
	in, s := faultTestInstance(5, 9)
	var jobs []Job
	for j := 0; j < 6; j++ {
		plan := faults.MustNew(faults.Config{
			Seed: int64(100 + j), Horizon: s.Makespan(),
			LinkDownRate: 0.08, LinkSlowRate: 0.08, CrashRate: 0.04, DropRate: 0.04,
		}, in.G)
		jobs = append(jobs, Job{Name: fmt.Sprintf("f%d", j), Instance: in, Schedule: s, Faults: plan})
	}
	marshal := func(workers int) string {
		res, err := RunBatch(context.Background(), jobs, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		reps, err := Reports(res)
		if err != nil {
			t.Fatal(err)
		}
		var frs []*faults.Report
		for _, r := range reps {
			frs = append(frs, r.Fault)
		}
		b, err := json.Marshal(frs)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := marshal(1)
	for _, w := range []int{2, 4, 8} {
		if got := marshal(w); got != want {
			t.Fatalf("fault reports differ between 1 and %d workers:\n%s\nvs\n%s", w, want, got)
		}
	}
}

func TestRunBatchDeadlineFreesPool(t *testing.T) {
	// One hung job must not stall the (single-worker) pool: the deadline
	// abandons it, the next job runs, and hooks/collector see the hung
	// job's terminal errored event.
	release := make(chan struct{})
	defer close(release)
	hung := Job{Name: "hung", Gen: func() (*tm.Instance, error) {
		<-release
		return nil, errors.New("released")
	}}
	good := Job{Name: "good", Gen: cliqueGen(16, 4, 2, 5), Scheduler: &core.Greedy{}}

	var mu sync.Mutex
	var terminal []Event
	hook := func(ev Event) {
		if ev.Stage == StageDone || ev.Err != nil {
			mu.Lock()
			terminal = append(terminal, ev)
			mu.Unlock()
		}
	}
	col := obs.NewMetricsCollector()
	start := time.Now()
	res, err := RunBatch(context.Background(), []Job{hung, good},
		Options{Workers: 1, Deadline: 50 * time.Millisecond, Hook: hook, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("batch took %v; the hung job stalled the pool", elapsed)
	}
	if res[0].Err == nil || !errors.Is(res[0].Err, context.DeadlineExceeded) {
		t.Fatalf("hung job err = %v, want wrapped DeadlineExceeded", res[0].Err)
	}
	if !strings.Contains(res[0].Err.Error(), "deadline") {
		t.Errorf("hung job error %q does not mention the deadline", res[0].Err)
	}
	if res[0].Report != nil {
		t.Errorf("hung job carries a report: %+v", res[0].Report)
	}
	if res[1].Err != nil || res[1].Report == nil {
		t.Fatalf("job after the hung one failed: %v", res[1].Err)
	}
	mu.Lock()
	var hungTerminal bool
	for _, ev := range terminal {
		if ev.Name == "hung" && ev.Stage == StageDone && ev.Err != nil {
			hungTerminal = true
		}
	}
	mu.Unlock()
	if !hungTerminal {
		t.Error("hook never saw the hung job's terminal errored event")
	}
	if got := col.Registry().Counter("engine_stage_errors_total", "stage", "done").Value(); got != 1 {
		t.Errorf("done-stage error counter = %d, want 1", got)
	}
}

func TestRunBatchRetriesTransientFailures(t *testing.T) {
	// A job that fails twice then succeeds must end OK under a 4-attempt
	// retry policy, with the retries counted on the collector.
	var calls atomic.Int64
	gen := cliqueGen(16, 4, 2, 7)
	flaky := Job{Name: "flaky", Gen: func() (*tm.Instance, error) {
		if calls.Add(1) <= 2 {
			return nil, errors.New("transient: fabric hiccup")
		}
		return gen()
	}, Scheduler: &core.Greedy{}}
	col := obs.NewMetricsCollector()
	res, err := RunBatch(context.Background(), []Job{flaky}, Options{
		Collector: col,
		Retry:     RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[0].Report == nil {
		t.Fatalf("flaky job did not recover: %v", res[0].Err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("generator called %d times, want 3", got)
	}
	if got := col.Registry().Counter("engine_retries_total").Value(); got != 2 {
		t.Errorf("engine_retries_total = %d, want 2", got)
	}

	// Retryable can veto: a permanent error burns no further attempts.
	calls.Store(0)
	always := Job{Name: "permanent", Gen: func() (*tm.Instance, error) {
		calls.Add(1)
		return nil, errors.New("permanent: bad workload")
	}}
	res, err = RunBatch(context.Background(), []Job{always}, Options{
		Retry: RetryPolicy{
			MaxAttempts: 5, Backoff: time.Millisecond,
			Retryable: func(err error) bool { return !strings.Contains(err.Error(), "permanent") },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil {
		t.Fatal("permanent failure reported success")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("non-retryable error attempted %d times, want 1", got)
	}
}
