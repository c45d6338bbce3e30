package sim

import (
	"fmt"
	"sort"

	"dtmsched/internal/faults"
	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
)

// Recovery policy of a fault-injected Run: a dropped move is re-dispatched
// backoffBase steps later, the delay doubles after every consecutive drop
// of the same hop up to backoffMax, and more than maxRetries consecutive
// drops abort the run rather than spin on a plan that drops everything.
const (
	backoffBase = 1
	backoffMax  = 64
	maxRetries  = 32
)

// faultEnv is the fault state of one Run under a non-empty plan: the
// hooks Run calls per dispatch (route), per commit (commit) and once at
// the end (finish), the recovery report they fill, and the reroute search.
//
// Reroute queries (dist) run on the surviving network without ever
// building it: they walk the unmodified base graph and ask the plan
// about every node and link they touch. A walk of the fault-free
// shortest-path DAG (basePath) answers most of them (92% of a
// 25k-transaction grid16 chaos stream's), and an A* search (search) runs
// only when no healthy shortest path survives. Fault epochs are short and
// consecutive windows touch disjoint step ranges, so a per-epoch subgraph
// would be built for a handful of queries and thrown away; the scratch of
// both stages, by contrast, lives for the whole run and is reused by
// every query.
type faultEnv struct {
	in      *tm.Instance
	inj     *faults.Plan
	bounds  []int64
	planned []int64 // the schedule's commit steps: a floor for the actual ones
	limit   int64   // step cap of every simulated event
	report  *faults.Report
	// seq[o] counts object o's dispatch attempts, the key scripted
	// MoveDrop faults select on.
	seq []int
	// actual[id] is transaction id's recovered commit step.
	actual []int64

	// Search scratch, shared by both stages. nodes[x] is valid for the
	// current stage only while nodes[x].seen == stamp; open is basePath's
	// DFS stack and search's binary min-heap of node IDs.
	nodes []searchNode
	open  []int32
	stamp uint32
}

// searchNode is one node's search state. For search (A*): its best known
// cost g from the source, its heuristic h to the target, and its heap
// slot (-1 once popped, or never pushed because the node is crashed). For
// basePath: h, and in pos the index of the next edge its DFS frame tries.
type searchNode struct {
	g, h int64
	seen uint32
	pos  int32
}

func newFaultEnv(in *tm.Instance, s *schedule.Schedule, inj *faults.Plan) *faultEnv {
	horizon := s.Makespan()
	e := &faultEnv{
		in: in, inj: inj, bounds: inj.Boundaries(), planned: s.Times,
		report: &faults.Report{Faults: inj.Count(), BaselineMakespan: horizon},
		seq:    make([]int, in.NumObjects),
		actual: make([]int64, in.NumTxns()),
	}
	// Faults legitimately push events past the planned makespan, so the
	// cap is a generous safety net (repeated backoff, crash windows,
	// partition waits) rather than the makespan: the run must still
	// terminate against an unrecoverable plan.
	e.limit = 16*horizon + 4096
	if n := len(e.bounds); n > 0 {
		e.limit += e.bounds[n-1]
	}
	return e
}

// dist returns the surviving-network distance between u and v at step,
// and false when the endpoints are partitioned (a crashed endpoint counts
// as partitioned). basePath answers when a fault-free shortest path
// survives, and search otherwise.
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
	if e.basePath(step, u, v) {
		return e.in.Dist(v, u), true
	}
	return e.search(step, u, v)
}

// nextStamp starts a stage: it invalidates every node's scratch and
// empties open.
func (e *faultEnv) nextStamp() {
	e.stamp++
	if e.stamp == 0 { // wrapped: every stale stamp could now collide
		clear(e.nodes)
		e.stamp = 1
	}
	e.open = e.open[:0]
}

// basePath reports whether a path of the fault-free length in.Dist(u, v)
// survives at step between the live endpoints u ≠ v. It runs an iterative
// DFS from u over the fault-free shortest-path DAG toward v: edge x→y of
// weight w is in the DAG when in.Dist(v, y) + w == in.Dist(v, x), and the
// DFS takes it only when the link's factor is exactly 1 and enters y only
// when y is up. A node is entered at most once, so one that leads nowhere
// is never tried again, and the DFS backtracks out of blocked branches.
//
// A true answer is exact: faults only remove links and nodes or multiply
// link weights by ≥ 2, so no surviving path is shorter than the
// fault-free distance, and a healthy path of that length is therefore a
// shortest surviving one. A false answer means the DAG holds no healthy
// path, and search must run.
func (e *faultEnv) basePath(step int64, u, v graph.NodeID) bool {
	hu := e.in.Dist(v, u)
	if hu == graph.Inf {
		return false
	}
	e.nextStamp()
	e.nodes[u] = searchNode{h: hu, seen: e.stamp}
	e.open = append(e.open, int32(u))
	for len(e.open) > 0 {
		top := len(e.open) - 1
		x := graph.NodeID(e.open[top])
		nx := &e.nodes[x]
		edges := e.in.G.Neighbors(x)
		if int(nx.pos) == len(edges) {
			e.open = e.open[:top] // no healthy DAG edge out of x: backtrack
			continue
		}
		edge := edges[nx.pos]
		nx.pos++
		y := edge.To
		if e.nodes[y].seen == e.stamp {
			continue // entered before: on the stack or a dead end
		}
		hy := e.in.Dist(v, y)
		if hy != nx.h-edge.Weight || e.inj.LinkFactor(x, y, step) != 1 {
			continue
		}
		if y == v {
			return true
		}
		e.nodes[y] = searchNode{h: hy, seen: e.stamp}
		if _, down := e.inj.NodeDownUntil(y, step); down {
			continue
		}
		e.open = append(e.open, int32(y))
	}
	return false
}

// search is dist's exact fallback: an A* search from u to v on the base
// graph, where a link costs its weight times the plan's factor and is
// skipped when the factor is ≤ 0, and crashed nodes are never entered.
// The heuristic is the fault-free distance in.Dist, which is consistent
// because faults only remove links or multiply their weights (Run's
// precondition that in.Metric is in.G's shortest-path metric makes it a
// lower bound on every surviving path). So the first pop of v carries the
// exact distance, and an exhausted heap means no surviving path exists.
func (e *faultEnv) search(step int64, u, v graph.NodeID) (int64, bool) {
	e.nextStamp()
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

// route delivers object o, released by its holder at node from at step,
// to transaction txn's node dest. It returns the departure step and the
// distance traveled: a crashed endpoint defers the departure to its
// restart, a partition waits for the next fault boundary, and a dropped
// move is re-dispatched after backoff. Drops and detours are recorded on
// the report.
func (e *faultEnv) route(res *Result, o int, txn tm.TxnID, from, dest graph.NodeID, depart int64, trace bool) (int64, int64, error) {
	backoff := int64(backoffBase)
	retries := 0
	var d int64
attempt:
	for {
		if depart > e.limit {
			return 0, 0, fmt.Errorf("sim: object %d still undelivered to node %d at step %d, past the step limit %d",
				o, dest, depart, e.limit)
		}
		// A crashed endpoint blocks the move until its restart.
		for _, v := range [2]graph.NodeID{from, dest} {
			if restart, down := e.inj.NodeDownUntil(v, depart); down {
				if restart >= faults.Forever {
					return 0, 0, fmt.Errorf("sim: object %d cannot move %d→%d: node %d never restarts", o, from, dest, v)
				}
				e.report.DeferredMoves++
				depart = restart
				continue attempt
			}
		}
		// Route on the surviving network; a partition waits for the next
		// fault boundary to restore connectivity.
		var ok bool
		d, ok = e.dist(depart, from, dest)
		if !ok {
			nb, more := e.nextBoundary(depart)
			if !more {
				return 0, 0, fmt.Errorf("sim: object %d is permanently partitioned from node %d (no fault boundary after step %d)",
					o, dest, depart)
			}
			e.report.BlockedWaits++
			depart = nb
			continue
		}
		seq := e.seq[o]
		e.seq[o]++
		if !e.inj.DropMove(tm.ObjectID(o), seq, depart) {
			break
		}
		retries++
		if retries > maxRetries {
			return 0, 0, fmt.Errorf("sim: object %d moving %d→%d exceeded the retry budget (%d consecutive drops)",
				o, from, dest, maxRetries)
		}
		e.report.Retries++
		e.report.WastedComm += d
		if trace {
			res.Events = append(res.Events,
				Event{Step: depart, Kind: EventDrop, Object: tm.ObjectID(o), Txn: txn, From: from, To: dest})
		}
		depart += backoff
		backoff = min(2*backoff, backoffMax)
	}
	if base := e.in.Dist(from, dest); d > base {
		e.report.Reroutes++
		e.report.RerouteExtra += d - base
	}
	return depart, d, nil
}

// commit returns the step at which transaction id, at node, commits once
// its objects are present at step: a crashed node defers the commit to its
// restart. A commit later than the schedule's is recorded on the report.
func (e *faultEnv) commit(res *Result, id tm.TxnID, node graph.NodeID, step int64, trace bool) (int64, error) {
	for {
		restart, down := e.inj.NodeDownUntil(node, step)
		if !down {
			break
		}
		if restart >= faults.Forever {
			return 0, fmt.Errorf("sim: transaction %d cannot commit: node %d never restarts", id, node)
		}
		step = restart
	}
	if step > e.limit {
		return 0, fmt.Errorf("sim: transaction %d deferred to step %d, past the step limit %d", id, step, e.limit)
	}
	if planned := e.planned[id]; step > planned {
		e.report.DeferredCommits++
		e.report.DeferredSteps += step - planned
		if trace {
			res.Events = append(res.Events, Event{Step: step, Kind: EventDefer, Txn: id, Node: node})
		}
	}
	e.actual[id] = step
	return step, nil
}

// finish cross-checks the recovery and attaches the report to res.
// Recovery must preserve single-copy semantics: every surviving-network
// distance is at least the healthy shortest path, so the recovered commit
// times must themselves form a feasible schedule under Definition 1 —
// anything else is a simulator bug.
func (e *faultEnv) finish(res *Result) error {
	recovered := &schedule.Schedule{Times: e.actual}
	if err := recovered.Validate(e.in); err != nil {
		return fmt.Errorf("sim: internal: recovered schedule violates Definition 1: %w", err)
	}
	e.report.Makespan = res.Makespan
	if h := e.report.BaselineMakespan; h > 0 {
		e.report.Inflation = float64(e.report.Makespan) / float64(h)
	}
	res.Fault = e.report
	return nil
}
