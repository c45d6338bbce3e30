package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dtmsched/internal/lower"
	"dtmsched/internal/obs"
)

// RetryPolicy re-runs failed job attempts with bounded exponential
// backoff. The zero value disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per job, including the
	// first (values ≤ 1 mean no retry).
	MaxAttempts int
	// Backoff is the wait before the second attempt (default 50ms); it
	// doubles after every failure up to MaxBackoff.
	Backoff time.Duration
	// MaxBackoff caps the doubling (default 1s).
	MaxBackoff time.Duration
	// Retryable filters which errors are worth retrying. Nil retries
	// every failure while the batch context is alive — deterministic
	// failures simply burn their bounded attempts.
	Retryable func(error) bool
}

// Options configures RunBatch.
type Options struct {
	// Workers is the goroutine pool size (0 = GOMAXPROCS). Results are
	// identical for every worker count: jobs own their randomness and
	// results are returned in job order.
	Workers int
	// Hook observes every job's stage completions. Called concurrently
	// from the workers; must be goroutine-safe.
	Hook Hook
	// Collector records stage timings, counters, and run traces for
	// every job that does not carry its own Job.Collector. Collectors
	// are goroutine-safe; nil costs nothing.
	Collector *obs.Collector
	// Deadline bounds each job attempt's wall time (0 = none). An
	// attempt that exceeds it is abandoned: the worker records the
	// deadline error and moves on, so one hung run cannot stall the
	// pool. The abandoned goroutine exits at its next stage boundary
	// (its context is cancelled); the worker emits the terminal errored
	// event immediately, so hooks and collectors may see one extra late
	// stage event from the abandoned attempt.
	Deadline time.Duration
	// Retry re-runs failed attempts per RetryPolicy. Each retry is
	// counted on the collector (engine_retries_total).
	Retry RetryPolicy
	// LowerOracle serves every job's Measure-stage certified bound from
	// a shared per-instance cache (jobs with their own Job.LowerOracle
	// keep it). Nil gets a fresh value-path oracle scoped to this batch
	// when some job computes a bound, so sweeps running k algorithms × t
	// trials against one instance compute its bound once; the batch
	// scope keeps retired instances collectable.
	LowerOracle *lower.Oracle
}

// JobResult pairs one job with its outcome: exactly one of Report / Err is
// set. Jobs skipped by cancellation carry the context's error.
type JobResult struct {
	// Index is the job's position in the input slice.
	Index int
	// Name echoes the job label.
	Name string
	// Report is the finished report on success.
	Report *Report
	// Err is the job's failure: a pipeline error, a recovered scheduler
	// panic, a deadline overrun, or the context error for jobs not run
	// before cancellation.
	Err error
}

// RunBatch fans jobs out over a bounded worker pool whose first worker is
// the calling goroutine. It always returns one JobResult per job, in job
// order, regardless of completion order. A panicking job fails its own
// result, not the sweep. Cancelling the context returns promptly: running
// jobs stop at their next stage boundary, unstarted jobs are marked with
// the context error, and all workers are joined before returning (no
// goroutine leaks — except attempts abandoned by Options.Deadline, which
// exit at their next stage boundary). The returned error is the context's
// error, if any; per-job failures are reported only through the results.
func RunBatch(ctx context.Context, jobs []Job, opt Options) ([]JobResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	oracle := opt.LowerOracle
	for i := 0; oracle == nil && i < len(jobs); i++ {
		if !jobs[i].SkipLowerBound && jobs[i].LowerOracle == nil {
			oracle = lower.NewOracle()
		}
	}
	results := make([]JobResult, len(jobs))
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(jobs) {
				return
			}
			if err := ctx.Err(); err != nil {
				results[i] = JobResult{Index: i, Name: jobs[i].Name, Err: err}
				continue // drain remaining jobs as cancelled
			}
			job := jobs[i]
			col := job.Collector
			if col == nil {
				col = opt.Collector
			}
			if job.LowerOracle == nil {
				job.LowerOracle = oracle
			}
			results[i] = runJob(ctx, i, job, combineHooks(job.Hook, opt.Hook), col, opt)
		}
	}
	// The caller is one of the workers, so a one-worker batch (every
	// serving window) starts no goroutine and grows no fresh stack.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return results, ctx.Err()
}

// runJob executes one job under the batch's retry policy: failed attempts
// are re-run with doubling backoff until they succeed, exhaust
// MaxAttempts, are ruled out by Retryable, or the batch context dies.
func runJob(ctx context.Context, i int, job Job, hook Hook, col *obs.Collector, opt Options) JobResult {
	attempts := opt.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := opt.Retry.Backoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	maxBackoff := opt.Retry.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = time.Second
	}
	var res JobResult
	for attempt := 1; ; attempt++ {
		res = runAttempt(ctx, i, job, hook, col, opt.Deadline)
		if res.Err == nil || attempt >= attempts || ctx.Err() != nil {
			return res
		}
		if opt.Retry.Retryable != nil && !opt.Retry.Retryable(res.Err) {
			return res
		}
		col.Registry().Counter("engine_retries_total").Inc()
		select {
		case <-ctx.Done():
			return res
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// runAttempt executes one attempt, bounding it by the per-job deadline
// when one is set. On overrun the attempt is abandoned — its context is
// cancelled, the worker synthesizes the terminal errored event (so
// collectors and hooks always see the job end, per the engine's terminal-
// event contract) and returns without waiting for the stuck goroutine.
func runAttempt(ctx context.Context, i int, job Job, hook Hook, col *obs.Collector, deadline time.Duration) JobResult {
	if deadline <= 0 {
		return runRecover(ctx, i, job, hook, col)
	}
	jctx, cancel := context.WithTimeout(ctx, deadline)
	// Only the waiting side cancels jctx: were the attempt's goroutine to
	// cancel it on return, its result and jctx.Done would both be ready to
	// the select below, and a finished job could read as an overrun.
	defer cancel()
	start := time.Now()
	done := make(chan JobResult, 1) // buffered: the late sender never blocks
	go func() { done <- runRecover(jctx, i, job, hook, col) }()
	select {
	case res := <-done:
		return res
	case <-jctx.Done():
		err := fmt.Errorf("engine: job %d (%s) exceeded the %v deadline: %w", i, job.Name, deadline, jctx.Err())
		elapsed := time.Since(start)
		if hook != nil {
			hook(Event{Job: i, Name: job.Name, Stage: StageDone, Elapsed: elapsed, Err: err})
		}
		col.Stage(i, job.Name, StageDone.String(), elapsed, err)
		return JobResult{Index: i, Name: job.Name, Err: err}
	}
}

// runRecover executes one pipeline run, converting panics (a buggy
// scheduler, a bad workload closure) into that job's error.
func runRecover(ctx context.Context, i int, job Job, hook Hook, col *obs.Collector) (res JobResult) {
	res = JobResult{Index: i, Name: job.Name}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("engine: job %d (%s) panicked: %v", i, job.Name, r)
		}
	}()
	res.Report, res.Err = run(ctx, i, job, hook, col)
	return res
}

// combineHooks chains a job-level and a batch-level hook.
func combineHooks(a, b Hook) Hook {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	default:
		return func(ev Event) { a(ev); b(ev) }
	}
}

// Reports unwraps a batch into bare reports, failing on the first job
// error. Convenience for callers (experiments, benches) that treat any
// job failure as fatal.
func Reports(results []JobResult) ([]*Report, error) {
	out := make([]*Report, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("engine: job %d (%s): %w", r.Index, r.Name, r.Err)
		}
		out[i] = r.Report
	}
	return out, nil
}
