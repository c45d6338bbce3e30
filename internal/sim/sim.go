// Package sim executes a schedule step by step under the synchronous
// data-flow model of Section 2.1, independently of the algebraic
// feasibility rules in package schedule. At every discrete step each node
// receives objects, executes a transaction whose objects have all arrived,
// and forwards objects toward their next requesters along shortest paths.
//
// The simulator is the ground truth for Definition 1: a schedule is
// feasible iff Run without faults completes without error, and the
// reported makespan and communication cost are measured from the actual
// object movements. Tests cross-check sim.Run against schedule.Validate on
// every algorithm.
package sim

import (
	"fmt"

	"dtmsched/internal/faults"
	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
)

// EventKind distinguishes trace events.
type EventKind int

// Event kinds.
const (
	// EventDepart: an object leaves a node toward its next requester.
	EventDepart EventKind = iota
	// EventArrive: an object reaches a requester's node.
	EventArrive
	// EventExecute: a transaction executes and commits.
	EventExecute
	// EventDrop: a dispatched object is lost in transit and will be
	// re-dispatched after backoff (fault-injected runs only).
	EventDrop
	// EventDefer: a transaction commits later than its scheduled step
	// because of faults (fault-injected runs only).
	EventDefer
)

// Event is one trace record.
type Event struct {
	Step   int64
	Kind   EventKind
	Object tm.ObjectID  // valid for depart/arrive
	Txn    tm.TxnID     // valid for execute; destination txn for depart/arrive
	From   graph.NodeID // depart: source node
	To     graph.NodeID // depart/arrive: destination node
	Node   graph.NodeID // execute: the executing node
}

// String renders the event for logs. Every defined kind has an explicit
// case; undefined kinds render visibly rather than masquerading as an
// execution, so trace output never silently mislabels an event.
func (e Event) String() string {
	switch e.Kind {
	case EventDepart:
		return fmt.Sprintf("t=%d obj%d departs %d→%d (for txn %d)", e.Step, e.Object, e.From, e.To, e.Txn)
	case EventArrive:
		return fmt.Sprintf("t=%d obj%d arrives at %d (for txn %d)", e.Step, e.Object, e.To, e.Txn)
	case EventExecute:
		return fmt.Sprintf("t=%d txn %d executes at node %d", e.Step, e.Txn, e.Node)
	case EventDrop:
		return fmt.Sprintf("t=%d obj%d dropped in transit %d→%d (for txn %d)", e.Step, e.Object, e.From, e.To, e.Txn)
	case EventDefer:
		return fmt.Sprintf("t=%d txn %d commits deferred at node %d", e.Step, e.Txn, e.Node)
	default:
		return fmt.Sprintf("t=%d unknown event kind %d", e.Step, int(e.Kind))
	}
}

// Result summarizes a simulation run.
type Result struct {
	// Makespan is the step at which the last transaction committed.
	Makespan int64
	// CommCost is the total distance traveled by all objects.
	CommCost int64
	// Moves counts object dispatches that traveled a nonzero distance
	// (one per hop sequence between consecutive holders).
	Moves int64
	// Executed counts committed transactions (equals the instance's
	// transaction count on success).
	Executed int
	// ObjectDistance[o] is the distance object o traveled.
	ObjectDistance []int64
	// Events is the trace, present only when requested.
	Events []Event
	// Fault summarizes the recovery work of a fault-injected run; nil
	// when Options.Faults is nil or empty.
	Fault *faults.Report
}

// Options configures a run.
type Options struct {
	// Trace records depart/arrive/execute events (plus drop/defer events
	// under faults).
	Trace bool
	// Faults scripts faults that break the model of Section 2.1 during
	// the replay. A nil or empty plan leaves the run fault-free: same
	// result, same events, nil Result.Fault, no extra allocations.
	Faults *faults.Plan
}

// Run simulates schedule s on instance in and verifies that every
// transaction's objects are physically present when it executes. It
// returns an error describing the first violation for infeasible
// schedules.
//
// Every simulated event is capped at a step limit so that the run
// terminates: the makespan without faults (an object is only ever
// dispatched toward a transaction, and on feasible input it arrives no
// later than that transaction executes), and 16·makespan + the last
// fault boundary + 4096 with them.
//
// Under a non-empty Options.Faults plan the run repairs the
// execution instead of failing it, and a late arrival becomes a recovery
// delay rather than an error:
//
//   - an object whose move is dropped in transit is re-dispatched with
//     bounded exponential backoff (1 step doubling to 64, at most 32
//     consecutive drops of one hop);
//   - a move across downed links travels the shortest path of the
//     surviving network, and waits for the next fault boundary when the
//     endpoints are partitioned outright;
//   - a crashed node defers its transaction's commit (and any dispatch
//     touching it) until the restart.
//
// The scheduled step of every transaction is kept as a floor — faults only
// ever delay commits — and each object still visits its requesters in
// schedule order, so single-copy semantics are preserved by construction
// and re-verified: the recovered commit times are cross-checked against
// schedule.Validate's Definition 1 invariants before returning. The
// Result then measures the faulty execution (its Makespan and CommCost
// include recovery delays and detours; CommCost counts delivered moves
// only), and Result.Fault quantifies the recovery work and the makespan
// inflation against the fault-free baseline. For a fixed (instance,
// schedule, plan) the Result and its trace are identical across runs:
// all fault decisions are seeded, never drawn from wall-clock or shared
// state.
//
// Precondition: in.Metric is in.G's shortest-path metric, as Validate
// already assumes (the topology package's checkMetric test pins it for
// every built-in topology). Reroutes search in.G guided by in.Metric, so
// a metric that overstates a distance could yield a longer-than-shortest
// surviving path.
func Run(in *tm.Instance, s *schedule.Schedule, opt Options) (*Result, error) {
	if err := checkInput(in, s); err != nil {
		return nil, err
	}
	limit := s.Makespan()
	var env *faultEnv
	if !opt.Faults.Empty() {
		env = newFaultEnv(in, s, opt.Faults)
		limit = env.limit
	}

	// Per-object itinerary: the requesters in handoff order.
	// h.Of(o)[i] is the ith transaction to receive object o.
	h := s.Handoffs(in)

	res := &Result{ObjectDistance: make([]int64, in.NumObjects)}
	// Object state: where it is (or will arrive), and the index of the
	// next itinerary stop it has been dispatched toward.
	type objState struct {
		node    graph.NodeID // current or destination node
		arrives int64        // step at which it is present at node
		next    int          // itinerary index the object is heading to / waiting at
	}
	objs := make([]objState, in.NumObjects)

	dispatch := func(o int, from graph.NodeID, step int64) error {
		it := h.Of(tm.ObjectID(o))
		st := &objs[o]
		if st.next >= len(it) {
			return nil // no further requester; object rests
		}
		dest := in.Txns[it[st.next]].Node
		depart := step
		var d int64
		if env != nil {
			var err error
			if depart, d, err = env.route(res, o, it[st.next], from, dest, step, opt.Trace); err != nil {
				return err
			}
		} else {
			d = in.Dist(from, dest)
		}
		st.node = dest
		st.arrives = depart + d
		if st.arrives > limit {
			return fmt.Errorf("sim: object %d departing node %d at step %d would reach node %d only at step %d, past the step limit %d",
				o, from, depart, dest, st.arrives, limit)
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
			return nil, err
		}
	}

	// Execute transactions in (scheduled step, ID) order, verifying
	// physical presence. Feasible schedules give the users of every
	// object strictly increasing times, so each object's chain of
	// requesters is processed in itinerary order and, under faults, every
	// dependency (the previous holder's actual commit) is already resolved
	// when a transaction is reached — one pass suffices even though faults
	// shift actual commit steps past later-scheduled, unrelated
	// transactions.
	for _, id := range h.Sweep {
		txn := &in.Txns[id]
		step := s.Times[id]
		for _, o := range txn.Objects {
			st := &objs[o]
			it := h.Of(o)
			if st.next >= len(it) || it[st.next] != id {
				return nil, fmt.Errorf("sim: object %d is not headed to transaction %d at step %d (single-copy conflict: another requester executes concurrently or later-ordered)",
					o, id, step)
			}
			if st.node != txn.Node {
				return nil, fmt.Errorf("sim: object %d is at/heading to node %d, not transaction %d's node %d",
					o, st.node, id, txn.Node)
			}
			if st.arrives > step {
				if env == nil {
					return nil, fmt.Errorf("sim: object %d arrives at node %d only at step %d, but transaction %d executes at step %d",
						o, txn.Node, st.arrives, id, step)
				}
				step = st.arrives // recovery delay, not an infeasibility
			}
		}
		if env != nil {
			var err error
			if step, err = env.commit(res, id, txn.Node, step, opt.Trace); err != nil {
				return nil, err
			}
		}
		// Commit: forward each object to its next requester.
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
				return nil, err
			}
		}
	}
	if env != nil {
		if err := env.finish(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkInput validates the (instance, schedule) pair before simulation:
// schedule shape (one time ≥ 1 per transaction) and per-transaction object
// lists (every requested object in [0, NumObjects), no duplicates). The
// object checks guard the simulator's dense per-object state against
// hand-built instances that bypassed tm.NewInstance — an out-of-range or
// duplicated request previously hit the object-state index as a panic.
// Allocation-free, so it adds nothing to a fault-free run's budget.
func checkInput(in *tm.Instance, s *schedule.Schedule) error {
	if len(s.Times) != in.NumTxns() {
		return fmt.Errorf("sim: schedule has %d times for %d transactions", len(s.Times), in.NumTxns())
	}
	for i, t := range s.Times {
		if t < 1 {
			return fmt.Errorf("sim: transaction %d scheduled at step %d < 1", i, t)
		}
	}
	for i := range in.Txns {
		objs := in.Txns[i].Objects
		for j, o := range objs {
			if o < 0 || int(o) >= in.NumObjects {
				return fmt.Errorf("sim: transaction %d requests object %d outside [0,%d)", i, o, in.NumObjects)
			}
			// Instance object lists are sorted strictly increasing
			// (tm.NewInstance enforces it); any duplicate shows up either
			// as an adjacent equal pair or as an inversion.
			if j > 0 && objs[j-1] == o {
				return fmt.Errorf("sim: transaction %d requests object %d twice", i, o)
			}
			if j > 0 && objs[j-1] > o {
				return fmt.Errorf("sim: transaction %d has unsorted objects (%d before %d); duplicates cannot be ruled out", i, objs[j-1], o)
			}
		}
	}
	return nil
}

// MustRun is Run for tests and examples that treat infeasibility as a
// programming error.
func MustRun(in *tm.Instance, s *schedule.Schedule, opt Options) *Result {
	res, err := Run(in, s, opt)
	if err != nil {
		panic(err)
	}
	return res
}
