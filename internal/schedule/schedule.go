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

// Order returns object o's requesting transactions sorted by execution
// time (ties broken by transaction ID; a feasible schedule has no ties
// among users of a shared object).
func (s *Schedule) Order(in *tm.Instance, o tm.ObjectID) []tm.TxnID {
	return s.orderInto(nil, in, o)
}

// orderInto is Order writing into buf's storage.
func (s *Schedule) orderInto(buf []tm.TxnID, in *tm.Instance, o tm.ObjectID) []tm.TxnID {
	out := append(buf[:0], in.Users(o)...)
	slices.SortFunc(out, func(a, b tm.TxnID) int {
		if c := cmp.Compare(s.Times[a], s.Times[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return out
}

// Travel returns each object's travel under s: the summed distance from
// its home through its requesters' nodes in execution order. It backs
// CommCost and the analysis reports; a verified run reads the same walk
// from its ChainChecker.Travel instead of repeating it.
func (s *Schedule) Travel(in *tm.Instance) []int64 {
	travel := make([]int64, in.NumObjects)
	var order []tm.TxnID
	for o := range travel {
		order = s.orderInto(order, in, tm.ObjectID(o))
		at := in.Home[o]
		for _, id := range order {
			travel[o] += in.Dist(at, in.Txns[id].Node)
			at = in.Txns[id].Node
		}
	}
	return travel
}

// CommCost returns the total communication cost: the summed shortest-path
// distance traversed by all objects along their routes.
func (s *Schedule) CommCost(in *tm.Instance) int64 {
	var total int64
	for _, d := range s.Travel(in) {
		total += d
	}
	return total
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
