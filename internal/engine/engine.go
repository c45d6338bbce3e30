// Package engine is the concurrent run layer of the reproduction: every
// evaluation of a scheduler — the public facade, the experiment harness,
// cmd/dtmbench, and the repository benchmarks — funnels through one staged
// pipeline
//
//	Generate → Schedule → Verify → Measure
//
// behind a single entry point, Run, plus a bounded-worker batch runner,
// RunBatch, with context cancellation, per-job panic recovery, and
// deterministic result ordering. Each stage is instrumented (wall time per
// stage, simulator steps, object moves, scheduler stats), and verification
// is a policy: VerifyFull replays the schedule hop by hop in the
// synchronous simulator, VerifyFast only checks Definition 1's algebraic
// transfer-time constraints, and VerifyOff trusts the scheduler — so large
// sweeps stop paying full simulation cost when they only need makespans.
package engine

import (
	"context"
	"fmt"
	"time"

	"dtmsched/internal/core"
	"dtmsched/internal/faults"
	"dtmsched/internal/lower"
	"dtmsched/internal/obs"
	"dtmsched/internal/schedule"
	"dtmsched/internal/sim"
	"dtmsched/internal/tm"
)

// VerifyMode selects how much verification the Verify stage performs. The
// zero value is VerifyFull: reports are fully simulator-checked unless a
// caller explicitly opts out.
type VerifyMode int

// Verification policies.
const (
	// VerifyFull validates the schedule algebraically and replays it hop
	// by hop in the synchronous simulator; the report carries measured
	// communication cost and simulator counters.
	VerifyFull VerifyMode = iota
	// VerifyFast checks Definition 1 with a schedule.ChainChecker from the
	// instance's homes (the check schedule.Validate makes) and keeps its
	// per-object travel; no simulation, no communication cost.
	VerifyFast
	// VerifyOff skips verification entirely.
	VerifyOff
)

// String names the mode for reports and flags.
func (m VerifyMode) String() string {
	switch m {
	case VerifyFull:
		return "full"
	case VerifyFast:
		return "fast"
	case VerifyOff:
		return "off"
	default:
		return fmt.Sprintf("verify(%d)", int(m))
	}
}

// Stage identifies a pipeline stage in Hook events.
type Stage int

// Pipeline stages, in execution order. StageDone fires once per job after
// Measure, carrying the finished Report.
const (
	StageGenerate Stage = iota
	StageSchedule
	StageVerify
	StageMeasure
	StageDone
)

// String names the stage for progress output.
func (s Stage) String() string {
	switch s {
	case StageGenerate:
		return "generate"
	case StageSchedule:
		return "schedule"
	case StageVerify:
		return "verify"
	case StageMeasure:
		return "measure"
	case StageDone:
		return "done"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Event is one progress record delivered to a Hook.
type Event struct {
	// Job is the index of the job within its batch (0 for single runs).
	Job int
	// Name is the job's label.
	Name string
	// Stage is the stage that just completed.
	Stage Stage
	// Elapsed is the completed stage's wall time (total time for
	// StageDone).
	Elapsed time.Duration
	// Err is the failure that aborted the stage, if any.
	Err error
	// Report is the finished report; non-nil only on successful
	// StageDone events.
	Report *Report
}

// Hook observes pipeline progress. Hooks are called synchronously from the
// worker executing the job, so they must be goroutine-safe when used with
// RunBatch.
type Hook func(Event)

// Job is one unit of work for the pipeline: an instance (given directly or
// produced by Gen) plus either a scheduler to run or a precomputed
// schedule to verify and measure.
type Job struct {
	// Name labels the job in events, errors, and the report.
	Name string
	// Instance is the problem instance. Leave nil to have Gen produce it
	// inside the Generate stage.
	Instance *tm.Instance
	// Gen produces the instance when Instance is nil. It runs on the
	// worker executing the job, so expensive workload generation is
	// parallelized and timed like every other stage.
	Gen func() (*tm.Instance, error)
	// Scheduler computes the schedule. Exactly one of Scheduler /
	// Schedule must be set.
	Scheduler core.Scheduler
	// Schedule is a precomputed schedule to verify and measure instead
	// of running a scheduler.
	Schedule *schedule.Schedule
	// Algorithm labels a precomputed Schedule in the report (default
	// "precomputed"); ignored when Scheduler is set.
	Algorithm string
	// Verify selects the verification policy (default VerifyFull).
	Verify VerifyMode
	// SkipLowerBound omits the certified lower-bound computation in the
	// Measure stage (Report.Bound stays zero, Ratio 0).
	SkipLowerBound bool
	// LowerOracle, when set, serves the Measure stage's certified bound
	// from a per-instance cache, so jobs sharing an Instance compute it
	// once. RunBatch jobs without their own oracle inherit the batch
	// oracle (see Options.LowerOracle); plain Run computes directly when
	// nil. Cache hits are visible on the collector's lower_* counters —
	// never on the Report, which stays byte-identical either way.
	LowerOracle *lower.Oracle
	// Faults, when set to a non-empty plan, replays the schedule under
	// fault injection in the Verify stage: sim.Run re-dispatches dropped
	// moves with backoff, reroutes around dead links, and defers commits
	// on crashed nodes. The recovery summary lands in Report.Fault and the
	// collector's fault_* counters. Jobs may share one plan. A non-empty
	// plan forces the faulty simulation even under VerifyFast / VerifyOff
	// (injection is meaningless without a replay); Report.Counters still
	// stays zero outside VerifyFull.
	Faults *faults.Plan
	// Hook, when set, observes this job's stage completions (in addition
	// to any batch-level hook).
	Hook Hook
	// Collector, when set, records this job's stage timings, counters,
	// and (if the collector traces) its full run trace. A nil collector
	// is free: the no-op path adds zero allocations to the pipeline.
	// RunBatch jobs without their own collector inherit the batch-level
	// Options.Collector.
	Collector *obs.Collector
}

// Timing records per-stage wall time. Timings are the only
// non-deterministic fields of a Report; comparisons across runs should
// zero them first.
type Timing struct {
	Generate time.Duration
	Schedule time.Duration
	Verify   time.Duration
	Measure  time.Duration
	// DepGraphBuild is the portion of the Schedule stage the scheduler
	// spent on conflict-graph work, summarizing and coloring H (summed
	// over graphs — Grid and Star color one per tile/period). Zero when
	// the scheduler reports no such instrumentation (baselines,
	// precomputed schedules).
	DepGraphBuild time.Duration
	// HierShard and HierMerge split the hierarchical scheduler's Schedule
	// stage: the parallel per-subtree local phase versus the top-level
	// cross-tier merge pass. Zero for every other scheduler.
	HierShard time.Duration
	HierMerge time.Duration
	// Total is the whole pipeline, including stage bookkeeping.
	Total time.Duration
}

// Counters carries the simulator-measured counters of a VerifyFull run;
// all zero under VerifyFast / VerifyOff.
type Counters struct {
	// SimSteps is the number of synchronous steps the simulator
	// executed (the step of the last commit).
	SimSteps int64
	// ObjectMoves counts object dispatches that traveled a nonzero
	// distance.
	ObjectMoves int64
	// Executed is the number of committed transactions.
	Executed int64
}

// Report is the outcome of one pipeline run.
type Report struct {
	// Name echoes the job label.
	Name string
	// Algorithm names the concrete algorithm that produced the schedule.
	Algorithm string
	// Makespan is the schedule's execution time (Definition 1).
	Makespan int64
	// Bound is the instance's certified lower bound (zero when
	// SkipLowerBound was set).
	Bound lower.Bound
	// Ratio is Makespan / Bound.Value (0 when the bound is unavailable).
	Ratio float64
	// CommCost is the total distance traveled by all objects, measured
	// by the simulator (VerifyFull only).
	CommCost int64
	// Stats carries algorithm-specific counters from the scheduler.
	Stats map[string]int64
	// Schedule is the verified schedule itself, for callers that need
	// per-transaction times (analysis, window checks, visualization).
	Schedule *schedule.Schedule
	// Verify echoes the policy the report was produced under.
	Verify VerifyMode
	// Timing is the per-stage instrumentation.
	Timing Timing
	// Counters are the simulator counters (VerifyFull only). Under fault
	// injection they are measured from the faulty replay, so SimSteps is
	// the recovered makespan, not the schedule's.
	Counters Counters
	// Fault summarizes the recovery work of a fault-injected run
	// (Job.Faults); nil for fault-free runs.
	Fault *faults.Report
}

// Run executes one job through the staged pipeline. The context is checked
// between stages, so cancellation aborts promptly without leaving partial
// state anywhere but the returned error. On error the report is nil.
func Run(ctx context.Context, job Job) (*Report, error) {
	return run(ctx, 0, job, job.Hook, job.Collector)
}

// run is Run with an explicit batch index, composed hook, and collector.
func run(ctx context.Context, idx int, job Job, hook Hook, col *obs.Collector) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	emit := func(stage Stage, elapsed time.Duration, err error, rep *Report) {
		if hook != nil {
			hook(Event{Job: idx, Name: job.Name, Stage: stage, Elapsed: elapsed, Err: err, Report: rep})
		}
		col.Stage(idx, job.Name, stage.String(), elapsed, err)
	}
	rep := &Report{Name: job.Name, Verify: job.Verify}
	fail := func(stage Stage, elapsed time.Duration, err error) (*Report, error) {
		err = fmt.Errorf("engine: %s stage: %w", stage, err)
		emit(stage, elapsed, err, nil)
		return nil, err
	}

	// Generate: obtain the instance. Cancellation between stages routes
	// through fail() like any stage error, so hooks and collectors always
	// see a terminal errored-stage event (never a started-but-silent job)
	// and the error names the stage it interrupted; errors.Is still
	// recognizes context.Canceled / DeadlineExceeded through the wrap.
	if err := ctx.Err(); err != nil {
		return fail(StageGenerate, 0, err)
	}
	t0 := time.Now()
	in := job.Instance
	if in == nil {
		if job.Gen == nil {
			return fail(StageGenerate, 0, fmt.Errorf("job %q has neither Instance nor Gen", job.Name))
		}
		var err error
		if in, err = job.Gen(); err != nil {
			return fail(StageGenerate, time.Since(t0), err)
		}
	}
	rep.Timing.Generate = time.Since(t0)
	emit(StageGenerate, rep.Timing.Generate, nil, nil)

	// Schedule: run the scheduler (or adopt the precomputed schedule).
	if err := ctx.Err(); err != nil {
		return fail(StageSchedule, 0, err)
	}
	t0 = time.Now()
	switch {
	case job.Scheduler != nil:
		// The Verify stage runs the Definition 1 check under VerifyFull
		// and VerifyFast, so a scheduler that can skip its own runs
		// unchecked there; under VerifyOff its own check is the only one.
		var res *core.Result
		var err error
		if u, ok := job.Scheduler.(core.Unchecked); ok && (job.Verify == VerifyFull || job.Verify == VerifyFast) {
			res, err = u.ScheduleUnchecked(in)
		} else {
			res, err = job.Scheduler.Schedule(in)
		}
		if err != nil {
			return fail(StageSchedule, time.Since(t0), err)
		}
		rep.Algorithm = res.Algorithm
		rep.Makespan = res.Makespan
		rep.Stats = res.Stats
		rep.Schedule = res.Schedule
	case job.Schedule != nil:
		if len(job.Schedule.Times) != in.NumTxns() {
			return fail(StageSchedule, 0, fmt.Errorf("job %q: schedule has %d times for %d transactions", job.Name, len(job.Schedule.Times), in.NumTxns()))
		}
		rep.Algorithm = job.Algorithm
		if rep.Algorithm == "" {
			rep.Algorithm = "precomputed"
		}
		rep.Makespan = job.Schedule.Makespan()
		rep.Schedule = job.Schedule
	default:
		return fail(StageSchedule, 0, fmt.Errorf("job %q has neither Scheduler nor Schedule", job.Name))
	}
	rep.Timing.Schedule = time.Since(t0)
	publishStats(col.Registry(), rep.Stats)
	// Wall clocks are the only non-deterministic scheduler stats (the
	// conflict-graph build time, the hierarchical scheduler's phases):
	// move them into Timing, whose fields are documented as such, so
	// Report.Stats stays byte-identical across runs and worker counts.
	rep.Timing.DepGraphBuild = time.Duration(rep.Stats["depgraph_build_ns"])
	rep.Timing.HierShard = time.Duration(rep.Stats["hier_shard_wall_ns"])
	rep.Timing.HierMerge = time.Duration(rep.Stats["hier_merge_wall_ns"])
	for _, key := range [...]string{"depgraph_build_ns", "hier_shard_wall_ns", "hier_merge_wall_ns"} {
		delete(rep.Stats, key)
	}
	emit(StageSchedule, rep.Timing.Schedule, nil, nil)

	// Verify: policy-dependent feasibility checking.
	if err := ctx.Err(); err != nil {
		return fail(StageVerify, 0, err)
	}
	t0 = time.Now()
	var simRes *sim.Result
	var travel []int64 // per-object, from the verifier that walked it
	switch job.Verify {
	case VerifyFull, VerifyFast:
		checker := schedule.NewChainChecker(in.Home)
		if err := checker.Check(in, rep.Schedule); err != nil {
			return fail(StageVerify, time.Since(t0), fmt.Errorf("%s schedule infeasible: %w", rep.Algorithm, err))
		}
		travel = checker.Travel()
	case VerifyOff:
		// Trust the scheduler.
	default:
		return fail(StageVerify, 0, fmt.Errorf("unknown verify mode %d", int(job.Verify)))
	}
	// Fault injection always replays the schedule, whatever the verify
	// policy: the replay is the measurement.
	if job.Verify == VerifyFull || !job.Faults.Empty() {
		var err error
		simRes, err = sim.Run(in, rep.Schedule, sim.Options{Trace: col.Tracing(), Faults: job.Faults})
		if err != nil {
			return fail(StageVerify, time.Since(t0), fmt.Errorf("simulator rejected %s schedule: %w", rep.Algorithm, err))
		}
		travel = simRes.ObjectDistance
		if rep.Fault = simRes.Fault; rep.Fault != nil {
			publishFault(col.Registry(), rep.Fault)
		}
	}
	if job.Verify == VerifyFull {
		rep.CommCost = simRes.CommCost
		rep.Counters = Counters{
			SimSteps:    simRes.Makespan,
			ObjectMoves: simRes.Moves,
			Executed:    int64(simRes.Executed),
		}
	}
	rep.Timing.Verify = time.Since(t0)
	emit(StageVerify, rep.Timing.Verify, nil, nil)

	// Measure: certified lower bound and approximation ratio.
	if err := ctx.Err(); err != nil {
		return fail(StageMeasure, 0, err)
	}
	t0 = time.Now()
	if !job.SkipLowerBound {
		var hit bool
		if job.LowerOracle != nil {
			var b *lower.Bound
			b, hit = job.LowerOracle.Get(in)
			rep.Bound = *b
		} else {
			rep.Bound = lower.Value(in)
		}
		if rep.Bound.Value > 0 {
			rep.Ratio = float64(rep.Makespan) / float64(rep.Bound.Value)
		}
		publishLower(col.Registry(), hit, time.Since(t0), &rep.Bound)
	}
	rep.Timing.Measure = time.Since(t0)
	emit(StageMeasure, rep.Timing.Measure, nil, nil)

	rep.Timing.Total = time.Since(start)
	recordRun(col, idx, job.Name, rep.Algorithm, in, rep.Schedule, simRes, travel)
	emit(StageDone, rep.Timing.Total, nil, rep)
	return rep, nil
}
