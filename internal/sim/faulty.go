package sim

import (
	"fmt"
	"sort"

	"dtmsched/internal/faults"
	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
)

// FaultyOptions configures RunFaulty.
type FaultyOptions struct {
	Options
	// Inject scripts the faults. A nil or empty injector makes RunFaulty
	// exactly Run (same result, same events, nil report, and no extra
	// allocations — the empty path is CI-guarded).
	Inject faults.Injector
	// BackoffBase is the delay in simulated steps before the first
	// re-dispatch of a dropped move (default 1). The delay doubles after
	// every consecutive drop of the same hop.
	BackoffBase int64
	// BackoffMax caps the re-dispatch delay (default 64 steps).
	BackoffMax int64
	// MaxRetries bounds consecutive re-dispatches of one hop (default
	// 32); exceeding the budget aborts the run with an error rather than
	// spinning on an injector that drops everything.
	MaxRetries int
}

// Defaults for FaultyOptions' zero values.
const (
	defaultBackoffBase = 1
	defaultBackoffMax  = 64
	defaultMaxRetries  = 32
)

// faultEnv answers reroute queries on the surviving network without ever
// building it: each query is an A* search over the unmodified base graph
// that asks the injector about every node it reaches and every link it
// relaxes. Fault epochs are short and consecutive windows touch disjoint
// step ranges, so a per-epoch subgraph would be built for a handful of
// queries and thrown away; the search's scratch, by contrast, lives for
// the whole run and is reused by every query.
type faultEnv struct {
	in     *tm.Instance
	inj    faults.Injector
	bounds []int64

	// A* scratch. nodes[x] is valid for the current query only while
	// nodes[x].seen == stamp; open is a binary min-heap of node IDs.
	nodes []searchNode
	open  []int32
	stamp uint32
}

// searchNode is one node's A* state: its best known cost g from the
// source, its heuristic h to the target, and its heap slot (-1 once
// popped, or never pushed because the node is crashed).
type searchNode struct {
	g, h int64
	seen uint32
	pos  int32
}

func newFaultEnv(in *tm.Instance, inj faults.Injector) *faultEnv {
	return &faultEnv{in: in, inj: inj, bounds: inj.Boundaries()}
}

// dist returns the surviving-network distance between u and v at step,
// and false when the endpoints are partitioned (a crashed endpoint counts
// as partitioned).
//
// The search runs on the base graph: a link costs its weight times the
// injector's factor and is skipped when the factor is ≤ 0, and crashed
// nodes are never entered. The heuristic is the fault-free distance
// in.Dist, which is consistent because faults only remove links or
// multiply their weights (RunFaulty's precondition that in.Metric is
// in.G's shortest-path metric makes it a lower bound on every surviving
// path). So the first pop of v carries the exact distance, and an
// exhausted heap means no surviving path exists.
func (e *faultEnv) dist(step int64, u, v graph.NodeID) (int64, bool) {
	if u == v {
		return 0, true
	}
	if _, down := e.inj.NodeDownUntil(u, step); down {
		return 0, false
	}
	if _, down := e.inj.NodeDownUntil(v, step); down {
		return 0, false
	}
	if e.nodes == nil {
		n := e.in.G.NumNodes()
		e.nodes = make([]searchNode, n)
		e.open = make([]int32, 0, n)
	}
	e.stamp++
	if e.stamp == 0 { // wrapped: every stale stamp could now collide
		clear(e.nodes)
		e.stamp = 1
	}
	e.open = e.open[:0]
	// The heuristic is evaluated as in.Dist(v, ·) — the same value as
	// in.Dist(·, v) on an undirected graph — so a graph-backed metric
	// serves every query of one target from a single cached tree.
	e.nodes[u] = searchNode{g: 0, h: e.in.Dist(v, u), seen: e.stamp}
	e.push(int32(u))
	for len(e.open) > 0 {
		x := e.pop()
		gx := e.nodes[x].g
		if graph.NodeID(x) == v {
			return gx, true
		}
		for _, edge := range e.in.G.Neighbors(graph.NodeID(x)) {
			y := edge.To
			ny := &e.nodes[y]
			if ny.seen == e.stamp && ny.pos < 0 {
				continue // popped (already exact) or crashed
			}
			f := e.inj.LinkFactor(graph.NodeID(x), y, step)
			if f <= 0 {
				continue
			}
			g := gx + edge.Weight*f
			if ny.seen == e.stamp {
				if g < ny.g {
					ny.g = g
					e.up(int(ny.pos))
				}
				continue
			}
			if _, down := e.inj.NodeDownUntil(y, step); down {
				*ny = searchNode{seen: e.stamp, pos: -1}
				continue
			}
			*ny = searchNode{g: g, h: e.in.Dist(v, y), seen: e.stamp}
			e.push(int32(y))
		}
	}
	return 0, false
}

// less orders the open heap by f = g + h, breaking ties toward the larger
// g (the node nearer the target).
func (e *faultEnv) less(a, b int32) bool {
	na, nb := &e.nodes[a], &e.nodes[b]
	fa, fb := na.g+na.h, nb.g+nb.h
	if fa != fb {
		return fa < fb
	}
	return na.g > nb.g
}

// place puts node x in heap slot i.
func (e *faultEnv) place(i int, x int32) {
	e.open[i] = x
	e.nodes[x].pos = int32(i)
}

func (e *faultEnv) push(x int32) {
	e.open = append(e.open, x)
	e.place(len(e.open)-1, x)
	e.up(len(e.open) - 1)
}

// pop removes the heap minimum and marks it closed.
func (e *faultEnv) pop() int32 {
	top := e.open[0]
	last := len(e.open) - 1
	e.place(0, e.open[last])
	e.open = e.open[:last]
	if last > 0 {
		e.down(0)
	}
	e.nodes[top].pos = -1
	return top
}

// up restores the heap order above slot i after its key decreased.
func (e *faultEnv) up(i int) {
	x := e.open[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(x, e.open[p]) {
			break
		}
		e.place(i, e.open[p])
		i = p
	}
	e.place(i, x)
}

// down restores the heap order below slot i.
func (e *faultEnv) down(i int) {
	x := e.open[i]
	n := len(e.open)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && e.less(e.open[r], e.open[c]) {
			c = r
		}
		if !e.less(e.open[c], x) {
			break
		}
		e.place(i, e.open[c])
		i = c
	}
	e.place(i, x)
}

// nextBoundary returns the first fault boundary strictly after step, and
// false when none remains (the fault state is final from step on).
func (e *faultEnv) nextBoundary(step int64) (int64, bool) {
	i := sort.Search(len(e.bounds), func(i int) bool { return e.bounds[i] > step })
	if i == len(e.bounds) {
		return 0, false
	}
	return e.bounds[i], true
}

// RunFaulty replays schedule s on instance in while the injector breaks the
// model of Section 2.1, and repairs the execution instead of failing it:
//
//   - an object whose move is dropped in transit is re-dispatched with
//     bounded exponential backoff (BackoffBase/BackoffMax/MaxRetries);
//   - a move across downed links travels the shortest path of the
//     surviving subgraph, and waits for the next fault boundary when the
//     endpoints are partitioned outright;
//   - a crashed node defers its transaction's commit (and any dispatch
//     touching it) until the restart.
//
// The scheduled step of every transaction is kept as a floor — faults only
// ever delay commits — and each object still visits its requesters in
// schedule order, so single-copy semantics are preserved by construction
// and re-verified: the recovered commit times are cross-checked against
// schedule.Validate's Definition 1 invariants before returning.
//
// The returned Result measures the faulty execution (its Makespan and
// CommCost include recovery delays and detours; CommCost counts delivered
// moves only). The Report quantifies the recovery work and the makespan
// inflation against the fault-free baseline. With a nil or empty injector
// the run is exactly Run and the report is nil.
//
// Determinism: for a fixed (instance, schedule, injector, options) the
// Result, the Report, and the event trace are identical across runs — all
// fault decisions are seeded, never drawn from wall-clock or shared state.
//
// Precondition: in.Metric is in.G's shortest-path metric, as Validate and
// Run already assume (the topology package's checkMetric test pins it for
// every built-in topology). Reroutes search in.G guided by in.Metric, so
// a metric that overstates a distance could yield a longer-than-shortest
// surviving path.
func RunFaulty(in *tm.Instance, s *schedule.Schedule, opt FaultyOptions) (*Result, *faults.Report, error) {
	if opt.Inject == nil || opt.Inject.Empty() {
		res, err := Run(in, s, opt.Options)
		return res, nil, err
	}
	if err := checkInput(in, s); err != nil {
		return nil, nil, err
	}
	horizon := s.Makespan()
	limit := opt.MaxSteps
	if limit == 0 {
		// Faults legitimately push events past the planned makespan, so
		// the derived cap is a generous safety net (repeated backoff,
		// crash windows, partition waits) rather than the makespan: the
		// run must still terminate against an unrecoverable plan.
		limit = 16*horizon + lastBoundary(opt.Inject) + 4096
	} else if horizon > limit {
		return nil, nil, fmt.Errorf("sim: schedule makespan %d exceeds step limit %d", horizon, limit)
	}
	backoffBase := opt.BackoffBase
	if backoffBase <= 0 {
		backoffBase = defaultBackoffBase
	}
	backoffMax := opt.BackoffMax
	if backoffMax <= 0 {
		backoffMax = defaultBackoffMax
	}
	maxRetries := opt.MaxRetries
	if maxRetries <= 0 {
		maxRetries = defaultMaxRetries
	}

	env := newFaultEnv(in, opt.Inject)
	fr := &faults.Report{Faults: opt.Inject.Count(), BaselineMakespan: horizon}

	itineraries := make([][]tm.TxnID, in.NumObjects)
	for o := range itineraries {
		itineraries[o] = s.Order(in, tm.ObjectID(o))
	}

	res := &Result{ObjectDistance: make([]int64, in.NumObjects)}
	// Object state mirrors Run's, plus the per-object dispatch-attempt
	// counter that scripted MoveDrop faults key on.
	type objState struct {
		node    graph.NodeID
		arrives int64
		next    int
		seq     int
	}
	objs := make([]objState, in.NumObjects)

	dispatch := func(o int, from graph.NodeID, commitStep int64) error {
		it := itineraries[o]
		st := &objs[o]
		if st.next >= len(it) {
			return nil // no further requester; object rests
		}
		dest := in.Txns[it[st.next]].Node
		depart := commitStep
		backoff := backoffBase
		retries := 0
		var d int64
		for {
			if depart > limit {
				return fmt.Errorf("sim: object %d still undelivered to node %d at step %d, past the step limit %d",
					o, dest, depart, limit)
			}
			// A crashed endpoint blocks the move until its restart.
			deferred := false
			for _, v := range [2]graph.NodeID{from, dest} {
				if restart, down := opt.Inject.NodeDownUntil(v, depart); down {
					if restart >= faults.Forever {
						return fmt.Errorf("sim: object %d cannot move %d→%d: node %d never restarts", o, from, dest, v)
					}
					fr.DeferredMoves++
					depart = restart
					deferred = true
					break
				}
			}
			if deferred {
				continue
			}
			// Route on the surviving subgraph; a partition waits for the
			// next fault boundary to restore connectivity.
			var ok bool
			d, ok = env.dist(depart, from, dest)
			if !ok {
				nb, more := env.nextBoundary(depart)
				if !more {
					return fmt.Errorf("sim: object %d is permanently partitioned from node %d (no fault boundary after step %d)",
						o, dest, depart)
				}
				fr.BlockedWaits++
				depart = nb
				continue
			}
			seq := st.seq
			st.seq++
			if opt.Inject.DropMove(tm.ObjectID(o), seq, depart) {
				retries++
				if retries > maxRetries {
					return fmt.Errorf("sim: object %d moving %d→%d exceeded the retry budget (%d consecutive drops)",
						o, from, dest, maxRetries)
				}
				fr.Retries++
				fr.WastedComm += d
				if opt.Trace {
					res.Events = append(res.Events,
						Event{Step: depart, Kind: EventDrop, Object: tm.ObjectID(o), Txn: it[st.next], From: from, To: dest})
				}
				depart += backoff
				backoff *= 2
				if backoff > backoffMax {
					backoff = backoffMax
				}
				continue
			}
			break
		}
		st.node = dest
		st.arrives = depart + d
		if st.arrives > limit {
			return fmt.Errorf("sim: object %d departing node %d at step %d would reach node %d only at step %d, past the step limit %d",
				o, from, depart, dest, st.arrives, limit)
		}
		if base := in.Dist(from, dest); d > base {
			fr.Reroutes++
			fr.RerouteExtra += d - base
		}
		if opt.Trace && d > 0 {
			res.Events = append(res.Events,
				Event{Step: depart, Kind: EventDepart, Object: tm.ObjectID(o), Txn: it[st.next], From: from, To: dest},
				Event{Step: st.arrives, Kind: EventArrive, Object: tm.ObjectID(o), Txn: it[st.next], To: dest})
		}
		res.CommCost += d
		res.ObjectDistance[o] += d
		if d > 0 {
			res.Moves++
		}
		return nil
	}

	// Step 0: every object departs home toward its first requester.
	for o := 0; o < in.NumObjects; o++ {
		objs[o] = objState{node: in.Home[o], arrives: 0, next: 0}
		if err := dispatch(o, in.Home[o], 0); err != nil {
			return nil, nil, err
		}
	}

	// Commit transactions in scheduled order. Feasible schedules give the
	// users of every object strictly increasing times, so each object's
	// chain of requesters is processed in itinerary order and every
	// dependency (the previous holder's actual commit) is already
	// resolved when a transaction is reached — one pass suffices even
	// though faults shift actual commit steps past later-scheduled,
	// unrelated transactions.
	order := make([]tm.TxnID, in.NumTxns())
	for i := range order {
		order[i] = tm.TxnID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := s.Times[order[a]], s.Times[order[b]]
		if ta != tb {
			return ta < tb
		}
		return order[a] < order[b]
	})

	actual := make([]int64, in.NumTxns())
	for _, id := range order {
		txn := &in.Txns[id]
		step := s.Times[id] // the schedule is a floor: faults only delay
		for _, o := range txn.Objects {
			st := &objs[o]
			it := itineraries[o]
			if st.next >= len(it) || it[st.next] != id {
				return nil, nil, fmt.Errorf("sim: object %d is not headed to transaction %d (single-copy conflict)", o, id)
			}
			if st.node != txn.Node {
				return nil, nil, fmt.Errorf("sim: object %d is at/heading to node %d, not transaction %d's node %d",
					o, st.node, id, txn.Node)
			}
			if st.arrives > step {
				step = st.arrives // recovery delay, not an infeasibility
			}
		}
		// A crashed node defers the commit to its restart.
		for {
			restart, down := opt.Inject.NodeDownUntil(txn.Node, step)
			if !down {
				break
			}
			if restart >= faults.Forever {
				return nil, nil, fmt.Errorf("sim: transaction %d cannot commit: node %d never restarts", id, txn.Node)
			}
			step = restart
		}
		if step > limit {
			return nil, nil, fmt.Errorf("sim: transaction %d deferred to step %d, past the step limit %d", id, step, limit)
		}
		if step > s.Times[id] {
			fr.DeferredCommits++
			fr.DeferredSteps += step - s.Times[id]
			if opt.Trace {
				res.Events = append(res.Events, Event{Step: step, Kind: EventDefer, Txn: id, Node: txn.Node})
			}
		}
		actual[id] = step
		if opt.Trace {
			res.Events = append(res.Events, Event{Step: step, Kind: EventExecute, Txn: id, Node: txn.Node})
		}
		res.Executed++
		if step > res.Makespan {
			res.Makespan = step
		}
		for _, o := range txn.Objects {
			objs[o].next++
			if err := dispatch(int(o), txn.Node, step); err != nil {
				return nil, nil, err
			}
		}
	}

	// Cross-check: recovery must preserve single-copy semantics. Every
	// surviving-subgraph distance is at least the healthy shortest path,
	// so the recovered commit times must themselves form a feasible
	// schedule under Definition 1 — anything else is a simulator bug.
	recovered := &schedule.Schedule{Times: actual}
	if err := recovered.Validate(in); err != nil {
		return nil, nil, fmt.Errorf("sim: internal: recovered schedule violates Definition 1: %w", err)
	}

	fr.Makespan = res.Makespan
	if horizon > 0 {
		fr.Inflation = float64(fr.Makespan) / float64(horizon)
	}
	return res, fr, nil
}

// lastBoundary returns the injector's final finite boundary (0 when none).
func lastBoundary(inj faults.Injector) int64 {
	b := inj.Boundaries()
	if len(b) == 0 {
		return 0
	}
	return b[len(b)-1]
}

// MustRunFaulty is RunFaulty for tests and examples that treat failure as a
// programming error.
func MustRunFaulty(in *tm.Instance, s *schedule.Schedule, opt FaultyOptions) (*Result, *faults.Report) {
	res, fr, err := RunFaulty(in, s, opt)
	if err != nil {
		panic(err)
	}
	return res, fr
}
