package stream

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"time"

	"dtmsched/internal/depgraph"
	"dtmsched/internal/engine"
	"dtmsched/internal/faults"
	"dtmsched/internal/graph"
	"dtmsched/internal/obs"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
)

// Config describes one streaming service run.
type Config struct {
	// G and Metric describe the network (Metric nil = the graph itself).
	G      *graph.Graph
	Metric graph.Metric
	// NumObjects is the shared object count; Home holds each object's
	// initial position (len NumObjects).
	NumObjects int
	Home       []graph.NodeID
	// Source supplies the transaction stream (a *Generator for seeded
	// load, or any custom Source).
	Source Source
	// MaxWindow caps the transactions per scheduling window (0 = the
	// number of nodes — one full window of the paper's batch model).
	MaxWindow int
	// QueueCap bounds the admission queue (0 = 2×MaxWindow).
	QueueCap int
	// Policy selects the backpressure behavior when the queue is full.
	Policy Policy
	// Verify is the per-window verification policy (zero value =
	// VerifyFull, the engine's default). The serving loop's cross-window
	// ChainChecker is every window's Definition 1 check, so VerifyFast
	// and VerifyOff serve alike: their window jobs run the engine at
	// VerifyOff. VerifyFull also replays each window in the simulator.
	Verify engine.VerifyMode
	// Retry and Deadline are the engine's per-window execution policies.
	Retry    engine.RetryPolicy
	Deadline time.Duration
	// PipelineDepth is how many cut windows may queue for execution
	// while earlier ones run (0 = 1): the cutter fills window w+1 while
	// the executor drains window w.
	PipelineDepth int
	// Collector receives stream_* admission/window metrics and the
	// engine's per-stage instrumentation; nil costs nothing.
	Collector *obs.Collector
	// Hook observes the per-window engine jobs (ledger hooks etc.).
	Hook engine.Hook

	// Faults, when set to a non-empty plan (NewChaos, or a scripted
	// faults.FromFaults plan), turns on fault-tolerant serving: every
	// window replays under faults in the engine's Verify stage,
	// transactions homed on down nodes are requeued with backoff instead
	// of scheduled into a doomed window, and the admission circuit breaker
	// sheds load while windows run inflated. Nil or empty keeps serving byte-identical to the
	// fault-free path (same decisions, same Digest).
	Faults *faults.Plan
	// MaxRequeue bounds how many times one transaction is pushed back
	// before it is shed (0 = 3).
	MaxRequeue int
	// InflationTrip is the circuit-breaker trip threshold on the rolling
	// mean window inflation — committed window makespan over fault-free
	// planned makespan, both relative to the cut step (0 = 1.5). While
	// tripped, admission runs Reject regardless of Policy; the breaker
	// closes again once the rolling mean falls halfway back to 1.
	InflationTrip float64
	// BreakerWindow is the rolling-mean length in executed windows
	// (0 = 4).
	BreakerWindow int
	// OnCancel selects the context-cancellation behavior: CancelAbort
	// (default) returns the context error immediately; CancelDrain
	// flushes the queue and in-flight windows and returns the summary
	// with Result.Cancelled set.
	OnCancel CancelPolicy
}

// Result summarizes one drained stream. Every field is deterministic for
// a fixed seed and configuration.
type Result struct {
	// Admitted / Rejected / Blocked are the admission-control outcomes:
	// transactions that entered the queue, were dropped by the Reject
	// policy (or the tripped breaker), or stalled at least once under
	// the Block policy.
	Admitted int64
	Rejected int64
	Blocked  int64
	// Committed counts transactions whose window the engine executed.
	Committed int64
	// Windows is the number of cut windows.
	Windows int
	// WindowSizes holds each window's transaction count, in cut order.
	WindowSizes []int
	// Clock is the final logical step (the last window's last commit).
	Clock int64
	// QueuePeak is the maximum queue depth observed after any admission.
	QueuePeak int
	// CommCost is the total object travel distance: the checker's Travel, summed.
	CommCost int64
	// MeanResponse / MaxResponse aggregate commit − arrival over all
	// committed transactions.
	MeanResponse float64
	MaxResponse  int64
	// Throughput is Committed / Clock, in transactions per step.
	Throughput float64
	// Digest fingerprints the run's logical decisions — admission order,
	// window cuts, commit steps, and (under faults) every requeue, shed,
	// and breaker transition — so two runs can be compared for
	// bit-determinism without retaining every schedule.
	Digest uint64

	// Requeued counts requeue decisions (one transaction may requeue
	// several times); RequeuePeak is the largest requeue backlog after
	// any window cut. Both zero without faults.
	Requeued    int64
	RequeuePeak int
	// Shed counts admitted transactions dropped after exhausting their
	// requeue budget — surfaced, never silently lost.
	Shed int64
	// DegradedWindows counts executed windows that committed past their
	// planned end under faults.
	DegradedWindows int
	// MeanInflation is the mean window-relative fault inflation over all
	// executed windows (1 = every window on plan; 0 without faults).
	MeanInflation float64
	// BreakerTrips / BreakerRecoveries count admission circuit-breaker
	// transitions.
	BreakerTrips      int
	BreakerRecoveries int
	// Cancelled reports that the run was cut short by context
	// cancellation under CancelDrain: the source was abandoned but every
	// admitted transaction was flushed through a window.
	Cancelled bool
}

// windowJob is one cut window handed to the executor: the shadow
// instance (homes frozen at the objects' release positions), the
// absolute-time schedule, the member items, and the cut interval the
// health layer judges fault inflation against.
type windowJob struct {
	index      int
	in         *tm.Instance
	sched      *schedule.Schedule
	size       int
	cutClock   int64
	plannedEnd int64
}

// windowOutcome is the executor's deterministic feedback for one window:
// the window-relative inflation the breaker consumes, drained by the
// serving loop with a fixed lag of PipelineDepth windows.
type windowOutcome struct {
	index     int
	inflation float64
	degraded  bool
}

// qitem is one queued transaction plus its health-layer state.
type qitem struct {
	it       Item
	attempts int   // requeue count so far
	retryAt  int64 // earliest cut step this item is eligible again
}

// requeueBackoff is the base requeue delay in window-time steps: the k-th
// requeue of a transaction waits requeueBackoff·2^(k−1) steps, or until
// its node's known restart if later.
const requeueBackoff int64 = 4

// Serve drains the configured stream: admit → cut → schedule → execute
// until the source is exhausted and every window has run. It returns the
// deterministic run summary, or the first error (invalid configuration,
// an infeasible window caught by the cross-checker, or a window whose
// engine execution failed after retries).
func Serve(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	metric := cfg.Metric
	if metric == nil {
		metric = cfg.G
	}
	n := cfg.G.NumNodes()
	maxWindow := cfg.MaxWindow
	if maxWindow <= 0 {
		maxWindow = n
	}
	queueCap := cfg.QueueCap
	if queueCap <= 0 {
		queueCap = 2 * maxWindow
	}
	depth := cfg.PipelineDepth
	if depth <= 0 {
		depth = 1
	}
	col := cfg.Collector
	m := newServeMetrics(col.Registry())

	// Fault-tolerant serving state. Everything in this block is inert
	// when the plan is nil or empty: no requeue checks, no breaker,
	// no extra digest records — the zero-fault run stays byte-identical
	// to the historical path.
	faultsOn := !cfg.Faults.Empty()
	maxRequeue := cfg.MaxRequeue
	if maxRequeue <= 0 {
		maxRequeue = 3
	}
	trip := cfg.InflationTrip
	if trip <= 0 {
		trip = 1.5
	}
	reset := 1 + (trip-1)/2
	breakerWin := cfg.BreakerWindow
	if breakerWin <= 0 {
		breakerWin = 4
	}
	drainOnCancel := cfg.OnCancel == CancelDrain
	// The loop's checker has already checked each window against
	// Definition 1, so a window job only replays: under VerifyFull, or
	// under a fault plan, which the engine replays at any policy.
	windowVerify := cfg.Verify
	if windowVerify == engine.VerifyFast {
		windowVerify = engine.VerifyOff
	}

	// Executor: windows run through the engine (with the batch layer's
	// retry/deadline policies) while the serving loop cuts the next one.
	// The loop owns all scheduling state, so executor interleaving never
	// touches determinism: under faults the executor reports each
	// window's outcome on a FIFO channel the loop drains at fixed
	// deterministic points (before cutting window w it has consumed the
	// outcomes of windows ≤ w − PipelineDepth).
	execCtx := ctx
	if drainOnCancel {
		execCtx = context.WithoutCancel(ctx)
	}
	jobs := make(chan windowJob, depth)
	var resCh chan windowOutcome
	if faultsOn {
		resCh = make(chan windowOutcome, depth+2)
	}
	var (
		execWG    sync.WaitGroup
		execErr   error
		committed int64
	)
	execWG.Add(1)
	go func() {
		defer execWG.Done()
		if resCh != nil {
			defer close(resCh)
		}
		for wj := range jobs {
			if execErr != nil {
				if resCh != nil {
					resCh <- windowOutcome{index: wj.index, inflation: 1}
				}
				continue // drain remaining windows after a failure
			}
			job := engine.Job{
				Name:           fmt.Sprintf("stream/w%d", wj.index),
				Instance:       wj.in,
				Schedule:       wj.sched,
				Algorithm:      "stream/window",
				Verify:         windowVerify,
				Faults:         cfg.Faults,
				SkipLowerBound: true,
			}
			results, err := engine.RunBatch(execCtx, []engine.Job{job}, engine.Options{
				Workers:   1,
				Hook:      cfg.Hook,
				Collector: col,
				Deadline:  cfg.Deadline,
				Retry:     cfg.Retry,
			})
			if err == nil {
				for _, r := range results {
					if r.Err != nil {
						err = r.Err
						break
					}
				}
			}
			if err != nil {
				execErr = fmt.Errorf("stream: window %d execution failed: %w", wj.index, err)
				if resCh != nil {
					resCh <- windowOutcome{index: wj.index, inflation: 1}
				}
				continue
			}
			committed += int64(wj.size)
			m.committed().Add(int64(wj.size))
			if resCh != nil {
				oc := windowOutcome{index: wj.index, inflation: 1}
				if fr := results[0].Report.Fault; fr != nil && wj.plannedEnd > wj.cutClock {
					oc.inflation = float64(fr.Makespan-wj.cutClock) / float64(wj.plannedEnd-wj.cutClock)
					if oc.inflation < 1 {
						oc.inflation = 1
					}
					oc.degraded = fr.Makespan > wj.plannedEnd
				}
				resCh <- oc
			}
		}
	}()

	res := &Result{}
	digest := fnv.New64a()
	hash64 := func(vs ...int64) {
		var buf [8]byte
		for _, v := range vs {
			u := uint64(v)
			for i := range buf {
				buf[i] = byte(u >> (8 * i))
			}
			digest.Write(buf[:])
		}
	}
	fail := func(err error) (*Result, error) {
		close(jobs)
		execWG.Wait()
		return nil, err
	}

	// Digest tags for the fault-path records. Normal records are
	// (seq ≥ 0, step ≥ 1) pairs, so a negative first word is
	// unambiguous; none of these are written on a zero-fault run.
	const (
		digestRequeue int64 = -1
		digestShed    int64 = -2
		digestBreaker int64 = -3
	)

	// Circuit-breaker state: a rolling window of per-window inflation
	// ratios fed exclusively from the deterministic outcome drain.
	var (
		breakerOpen bool
		inflHist    []float64
		sumInfl     float64
		outcomes    int
		reported    int
	)
	handleOutcome := func(oc windowOutcome) {
		reported++
		outcomes++
		sumInfl += oc.inflation
		m.faultWindows().Inc()
		if oc.degraded {
			res.DegradedWindows++
			m.faultDegraded().Inc()
		}
		m.inflation().Observe(int64(oc.inflation*100 + 0.5))
		inflHist = append(inflHist, oc.inflation)
		if len(inflHist) > breakerWin {
			inflHist = inflHist[1:]
		}
		var mean float64
		for _, v := range inflHist {
			mean += v
		}
		mean /= float64(len(inflHist))
		switch {
		case !breakerOpen && mean >= trip:
			breakerOpen = true
			res.BreakerTrips++
			m.trips().Inc()
			hash64(digestBreaker, int64(oc.index), 1)
		case breakerOpen && mean <= reset:
			breakerOpen = false
			res.BreakerRecoveries++
			m.recoveries().Inc()
			hash64(digestBreaker, int64(oc.index), 0)
		}
	}

	// Chained scheduling state: the release chain spans the whole stream,
	// exactly as windows.Run chains homes across a finite sequence; the
	// chain checker independently verifies every cut window's
	// feasibility.
	chain := schedule.NewChain(metric, cfg.Home, cfg.G.NumNodes())
	checker := schedule.NewChainChecker(cfg.Home)

	var (
		queue      []qitem
		pending    *Item
		slot       Item // pending's storage
		pendingHit bool // pending already counted as blocked
		srcDone    bool
		lastArrive int64 = -1
		clock      int64
		totalResp  float64
		cut        = make([]Item, 0, min(maxWindow, n)) // reused per window
		nodeWindow = make([]int, n)                     // 1 + the window that last took each node
	)

	// admit pulls arrivals with Arrive ≤ upTo into the bounded queue in
	// arrival order, applying the backpressure policy when full. A
	// tripped breaker forces Reject whatever the configured policy.
	admit := func(upTo int64) error {
		var admitted, rejected, blocked int64
		policy := cfg.Policy
		if breakerOpen {
			policy = Reject
		}
		for {
			if pending == nil {
				if srcDone {
					break
				}
				it, ok := cfg.Source.Next()
				if !ok {
					srcDone = true
					break
				}
				if it.Arrive < lastArrive {
					return fmt.Errorf("stream: source emitted arrival %d after %d (must be non-decreasing)", it.Arrive, lastArrive)
				}
				if it.Node < 0 || int(it.Node) >= n {
					return fmt.Errorf("stream: transaction %d on node %d outside [0,%d)", it.Seq, it.Node, n)
				}
				if len(it.Objects) == 0 {
					return fmt.Errorf("stream: transaction %d requests no objects", it.Seq)
				}
				for i, o := range it.Objects {
					if o < 0 || int(o) >= cfg.NumObjects {
						return fmt.Errorf("stream: transaction %d requests object %d outside [0,%d)", it.Seq, o, cfg.NumObjects)
					}
					if slices.Contains(it.Objects[:i], o) {
						return fmt.Errorf("stream: transaction %d requests object %d twice", it.Seq, o)
					}
				}
				// The shadow instance's transactions need sorted object
				// lists, and sorting must not reorder the source's slice:
				// an unsorted list is sorted in a private copy.
				if !slices.IsSorted(it.Objects) {
					it.Objects = slices.Clone(it.Objects)
					slices.Sort(it.Objects)
				}
				lastArrive = it.Arrive
				slot, pending = it, &slot
				pendingHit = false
			}
			if pending.Arrive > upTo {
				break
			}
			if len(queue) >= queueCap {
				if policy == Reject {
					rejected++
					pending = nil
					continue
				}
				// Block: the arrival waits at the source; count the
				// stall once and stop pulling until space frees up.
				if !pendingHit {
					blocked++
					pendingHit = true
				}
				break
			}
			queue = append(queue, qitem{it: *pending})
			admitted++
			pending = nil
			if len(queue) > res.QueuePeak {
				res.QueuePeak = len(queue)
			}
		}
		res.Admitted += admitted
		res.Rejected += rejected
		res.Blocked += blocked
		addCount(m.admitted, admitted)
		addCount(m.rejected, rejected)
		addCount(m.blocked, blocked)
		m.queueDepth().Set(int64(len(queue)))
		m.queuePeak().Max(int64(len(queue)))
		return nil
	}

	for {
		if err := ctx.Err(); err != nil {
			if !drainOnCancel {
				return fail(err)
			}
			// Graceful shutdown: abandon the source (the un-admitted
			// pending arrival with it) and flush everything already
			// admitted through the normal cut/execute path.
			if !res.Cancelled {
				res.Cancelled = true
				srcDone = true
				pending = nil
			}
		}
		// Deterministic breaker feedback: before cutting window w, the
		// outcomes of windows ≤ w − PipelineDepth have been consumed, so
		// the breaker state feeding this iteration's admission and cut
		// depends only on the seed and configuration, never on executor
		// timing.
		if faultsOn {
			for need := res.Windows - depth + 1; reported < need; {
				handleOutcome(<-resCh)
			}
		}
		if err := admit(clock); err != nil {
			return fail(err)
		}
		if len(queue) == 0 {
			if srcDone && pending == nil {
				break
			}
			// Idle: jump the clock to the next arrival. pending is
			// non-nil here (a blocked arrival cannot coexist with an
			// empty queue since queueCap ≥ 1).
			clock = pending.Arrive
			if err := admit(clock); err != nil {
				return fail(err)
			}
		}

		// Cut: first-come-first-served from the queue front, skipping
		// transactions whose node is already in the window (the batch
		// model admits one transaction per node per window); skipped
		// items keep their queue order for the next cut. Under faults
		// the health layer runs first: items homed on a node that is
		// down at the cut step are requeued with exponential backoff in
		// window-time (or until the node's known restart), and items
		// that exhausted their requeue budget are shed.
		cut = cut[:0]
		rest := queue[:0]
		var requeuedNow, shedNow int64
		for _, q := range queue {
			if faultsOn {
				if q.retryAt > clock {
					rest = append(rest, q)
					continue
				}
				if restart, down := cfg.Faults.NodeDownUntil(q.it.Node, clock+1); down {
					q.attempts++
					if q.attempts > maxRequeue {
						shedNow++
						res.Shed++
						hash64(digestShed, int64(q.it.Seq), clock)
						continue
					}
					shift := q.attempts - 1
					if shift > 20 {
						shift = 20
					}
					q.retryAt = clock + requeueBackoff<<shift
					if restart != faults.Forever && restart > q.retryAt {
						q.retryAt = restart
					}
					requeuedNow++
					res.Requeued++
					hash64(digestRequeue, int64(q.it.Seq), q.retryAt)
					rest = append(rest, q)
					continue
				}
			}
			if len(cut) < maxWindow && nodeWindow[q.it.Node] != res.Windows+1 {
				nodeWindow[q.it.Node] = res.Windows + 1
				cut = append(cut, q.it)
			} else {
				rest = append(rest, q)
			}
		}
		queue = rest
		if faultsOn {
			backlog := 0
			for _, q := range queue {
				if q.attempts > 0 {
					backlog++
				}
			}
			if backlog > res.RequeuePeak {
				res.RequeuePeak = backlog
			}
			if requeuedNow > 0 || shedNow > 0 {
				addCount(m.requeued, requeuedNow)
				addCount(m.shed, shedNow)
				m.requeueDepth().Set(int64(backlog))
				m.requeuePeak().Max(int64(backlog))
			}
			if len(cut) == 0 {
				// Everything eligible was requeued or shed: advance the
				// clock to the next event (earliest retry, or the next
				// arrival if the queue has room for it) instead of
				// cutting an empty window. Bounded retries guarantee
				// progress even against a permanently down node.
				if len(queue) == 0 {
					continue // loop top handles drain/idle-jump
				}
				next := int64(-1)
				for _, q := range queue {
					if next < 0 || q.retryAt < next {
						next = q.retryAt
					}
				}
				if len(queue) < queueCap && pending != nil && pending.Arrive < next {
					next = pending.Arrive
				}
				if next <= clock {
					next = clock + 1
				}
				clock = next
				continue
			}
		}

		// Shadow instance: this window's transactions with object homes
		// frozen at the current release positions, so the engine's
		// simulator replay starts from the handoff positions the cutter
		// scheduled against. The homes are a snapshot because the loop
		// keeps advancing the chain while the executor runs.
		txns := make([]tm.Txn, len(cut))
		for i, it := range cut {
			txns[i] = tm.Txn{Node: it.Node, Objects: it.Objects}
		}
		in := tm.NewInstance(cfg.G, metric, cfg.NumObjects, txns, chain.Homes())

		// Greedy ranks over the window instance's own index:
		// cross-window constraints ride on the chain, not on H's edges.
		h := depgraph.New(in, nil, in.Index())
		ranks := h.Ranks(h.OrderByNode())

		// List-schedule in coloring order (ranks, then IDs): each
		// transaction takes the earliest step after the cut boundary
		// that its objects can reach it and its node is free. Arrivals
		// need no explicit constraint: every member arrived ≤ clock, so
		// t ≥ clock+1 > its arrival.
		s := schedule.New(in.NumTxns())
		for _, i := range h.OrderByColor(ranks) {
			txn := &in.Txns[h.IDs[i]]
			s.Times[txn.ID] = max(chain.Earliest(txn.Node, txn.Objects), clock+1)
			chain.Commit(txn.Node, txn.Objects, s.Times[txn.ID])
		}
		windowEnd := s.Makespan()

		// The window's one Definition 1 check, independent of the chain
		// that built it (the schedule.ChainChecker the finite-sequence
		// scheduler uses): handoff chains and per-node commit ordering
		// across every window so far.
		if err := checker.Check(in, s); err != nil {
			return fail(fmt.Errorf("stream: window %d infeasible: %w", res.Windows, err))
		}

		// Window accounting: latency (cut → last commit), per-member
		// response times, and the determinism digest over (seq, commit)
		// pairs; the checker above already walked communication cost.
		for i, it := range cut {
			r := s.Times[in.Txns[i].ID] - it.Arrive
			m.response().Observe(r)
			totalResp += float64(r)
			if r > res.MaxResponse {
				res.MaxResponse = r
			}
			hash64(int64(it.Seq), s.Times[in.Txns[i].ID])
		}
		m.windows().Inc()
		m.windowSize().Observe(int64(len(cut)))
		m.windowLatency().Observe(windowEnd - clock)
		res.WindowSizes = append(res.WindowSizes, len(cut))

		cancelC := ctx.Done()
		if drainOnCancel {
			cancelC = nil // block until the executor frees a slot
		}
		select {
		case jobs <- windowJob{index: res.Windows, in: in, sched: s, size: len(cut), cutClock: clock, plannedEnd: windowEnd}:
		case <-cancelC:
			return fail(ctx.Err())
		}
		res.Windows++
		clock = windowEnd
	}

	close(jobs)
	execWG.Wait()
	if faultsOn {
		for oc := range resCh {
			handleOutcome(oc)
		}
	}
	if execErr != nil {
		return nil, execErr
	}
	res.Committed = committed
	res.Clock = clock
	for _, d := range checker.Travel() {
		res.CommCost += d
	}
	if res.Committed > 0 {
		res.MeanResponse = totalResp / float64(res.Committed)
	}
	if res.Clock > 0 {
		res.Throughput = float64(res.Committed) / float64(res.Clock)
	}
	if outcomes > 0 {
		res.MeanInflation = sumInfl / float64(outcomes)
	}
	res.Digest = digest.Sum64()
	return res, nil
}

// serveMetrics holds one Serve call's registry handles: admission
// outcomes, window shape and latency, per-transaction response times,
// and the fault layer's requeue, shed, breaker, and inflation series.
// Each handle resolves on its first call, so a series the run never
// touches stays out of the exposition; a nil registry resolves nil
// handles, whose methods do nothing.
type serveMetrics struct {
	admitted, rejected, blocked, windows, committed  func() *obs.Counter
	requeued, shed, trips, recoveries                func() *obs.Counter
	faultWindows, faultDegraded                      func() *obs.Counter
	queueDepth, queuePeak, requeueDepth, requeuePeak func() *obs.Gauge
	windowSize, windowLatency, response, inflation   func() *obs.Histogram
}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	c := func(name string) func() *obs.Counter { return once(func() *obs.Counter { return reg.Counter(name) }) }
	g := func(name string) func() *obs.Gauge { return once(func() *obs.Gauge { return reg.Gauge(name) }) }
	h := func(name string) func() *obs.Histogram {
		return once(func() *obs.Histogram { return reg.Histogram(name) })
	}
	return &serveMetrics{
		admitted: c("stream_admitted_total"), rejected: c("stream_rejected_total"),
		blocked: c("stream_blocked_total"), windows: c("stream_windows_total"),
		committed: c("stream_committed_total"), requeued: c("stream_requeue_total"),
		shed: c("stream_shed_total"), trips: c("stream_breaker_trips_total"),
		recoveries:   c("stream_breaker_recoveries_total"),
		faultWindows: c("stream_fault_windows_total"), faultDegraded: c("stream_fault_degraded_total"),
		queueDepth: g("stream_queue_depth"), queuePeak: g("stream_queue_depth_peak"),
		requeueDepth: g("stream_requeue_depth"), requeuePeak: g("stream_requeue_depth_peak"),
		windowSize: h("stream_window_size"), windowLatency: h("stream_window_latency_steps"),
		response: h("stream_txn_response_steps"), inflation: h("stream_fault_inflation_pct"),
	}
}

// addCount adds a nonzero delta to c, so a zero never creates the series.
func addCount(c func() *obs.Counter, d int64) {
	if d != 0 {
		c().Add(d)
	}
}

// once memoizes resolve: the first call resolves, later calls reuse it.
func once[H any](resolve func() H) func() H {
	var h H
	done := false
	return func() H {
		if !done {
			h, done = resolve(), true
		}
		return h
	}
}
