// Package schedule defines the execution schedules produced by the
// scheduling algorithms and the feasibility rules of Definition 1.
//
// A schedule assigns each transaction T_i the discrete time step t(T_i) ≥ 1
// at which it executes and commits. Timing semantics follow the paper's
// synchronous model: within one step a node receives objects, executes, and
// forwards; an object forwarded after a transaction executing at step t
// reaches a node at distance d in time for step t+d. Each object's initial
// position acts as a virtual holder at time 0, so the first requester may
// execute no earlier than its distance from the object's home.
package schedule

import (
	"cmp"
	"slices"

	"dtmsched/internal/keysort"
	"dtmsched/internal/tm"
)

// Schedule holds one execution time per transaction: Times[i] = t(T_i).
type Schedule struct {
	Times []int64
}

// New returns a schedule with all times unset (zero, which is infeasible
// until assigned).
func New(numTxns int) *Schedule {
	return &Schedule{Times: make([]int64, numTxns)}
}

// Makespan returns the execution time of the schedule: the maximum t(T_i)
// (Definition 1). Zero for an empty schedule.
func (s *Schedule) Makespan() int64 {
	var m int64
	for _, t := range s.Times {
		if t > m {
			m = t
		}
	}
	return m
}

// Handoffs is a schedule's (time, ID) order over its instance. Sweep
// lists every transaction in that order: restricted to one object it is
// the order the object is handed from requester to requester (§2.1),
// restricted to one node its commit order. Of reads each object's
// restriction from a CSR with the offsets of the instance's conflict
// index. A feasible schedule has no ties among the users of a shared
// object, so there the ID only orders unrelated transactions.
type Handoffs struct {
	Sweep   []tm.TxnID
	off     []int32 // object o's requesters are members[off[o]:off[o+1]]
	members []tm.TxnID
}

// Of returns object o's requesting transactions in handoff order. The
// slice aliases h's storage: read-only.
func (h Handoffs) Of(o tm.ObjectID) []tm.TxnID { return h.members[h.off[o]:h.off[o+1]] }

// Handoffs returns s's handoff order over in, which s must give one time
// per transaction. Each object's member count in in.Index() fixes its end
// offset, and a backward pass over the sweep places each requester just
// below its object's end, so the offsets finish as start offsets.
func (s *Schedule) Handoffs(in *tm.Instance) Handoffs {
	order, _ := sweep(nil, nil, s.Times)
	idx := in.Index()
	off := make([]int32, in.NumObjects+1)
	var total int32
	for o := range in.NumObjects {
		total += int32(len(idx.Members(tm.ObjectID(o))))
		off[o] = total
	}
	off[in.NumObjects] = total
	members := make([]tm.TxnID, total)
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		for _, o := range in.Txns[id].Objects {
			off[o]--
			members[off[o]] = id
		}
	}
	return Handoffs{Sweep: order, off: off, members: members}
}

// Travel returns each object's travel under s: the summed distance from
// its home through its requesters' nodes in handoff order, walked along
// the sweep. A verified run reads the same walk from its
// ChainChecker.Travel instead of repeating it.
func (s *Schedule) Travel(in *tm.Instance) []int64 {
	travel := make([]int64, in.NumObjects)
	at := slices.Clone(in.Home)
	order, _ := sweep(nil, nil, s.Times)
	for _, id := range order {
		node := in.Txns[id].Node
		for _, o := range in.Txns[id].Objects {
			travel[o] += in.Dist(at[o], node)
			at[o] = node
		}
	}
	return travel
}

// sweep writes 0..len(times)−1 into order's storage in (time, ID) order
// and returns it with counts, the step-count scratch it grows for long
// spans. A window's steps span about its makespan, so they are counted by
// t − min — on a stack array when the span is short, as a serving
// window's is, on counts when it is long — and compared only when the
// span is wide against the window, as an offline schedule's makespan can
// be. It is the repo's one sort of transactions by commit time.
func sweep(order []tm.TxnID, counts []int32, times []int64) ([]tm.TxnID, []int32) {
	order = slices.Grow(order[:0], len(times))[:len(times)]
	if len(times) == 0 {
		return order, counts
	}
	lo := slices.Min(times)
	span := slices.Max(times) - lo + 1
	switch {
	case !keysort.Fits(span, len(times)):
		for i := range order {
			order[i] = tm.TxnID(i)
		}
		slices.SortFunc(order, func(a, b tm.TxnID) int {
			return cmp.Or(cmp.Compare(times[a], times[b]), cmp.Compare(a, b))
		})
	case span <= keysort.StackSpan:
		var stack [keysort.StackSpan + 1]int32
		keysort.Stable(order, times, lo, stack[:span+1])
	default:
		counts = slices.Grow(counts[:0], int(span)+1)[:span+1]
		clear(counts)
		keysort.Stable(order, times, lo, counts)
	}
	return order, counts
}

// Validate checks feasibility per Definition 1:
//
//   - every transaction has t(T_i) ≥ 1;
//   - for each object, its first requester executes no earlier than the
//     object's distance from home;
//   - each subsequent requester executes at least dist(prev, next) steps
//     after the previous one (the object must physically travel between
//     commits);
//   - transactions sharing a node commit at distinct steps.
//
// It is a fresh ChainChecker run over the single window s, starting from
// in.Home at time 0 and keeping no Travel. It returns nil for feasible
// schedules and a descriptive error otherwise.
func (s *Schedule) Validate(in *tm.Instance) error {
	c := &ChainChecker{relT: make([]int64, len(in.Home)), relN: slices.Clone(in.Home)}
	return c.Check(in, s)
}

// Shift adds delta to every execution time; useful when composing phase
// schedules.
func (s *Schedule) Shift(delta int64) {
	for i := range s.Times {
		s.Times[i] += delta
	}
}

// Clone returns a deep copy.
func (s *Schedule) Clone() *Schedule {
	times := make([]int64, len(s.Times))
	copy(times, s.Times)
	return &Schedule{Times: times}
}
