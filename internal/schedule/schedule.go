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
	"sort"

	"dtmsched/internal/graph"
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
	users := in.Users(o)
	out := make([]tm.TxnID, len(users))
	copy(out, users)
	sort.Slice(out, func(i, j int) bool {
		ti, tj := s.Times[out[i]], s.Times[out[j]]
		if ti != tj {
			return ti < tj
		}
		return out[i] < out[j]
	})
	return out
}

// Route returns the nodes object o visits under s: its home followed by
// its requesters' nodes in execution order. Consecutive duplicates are
// collapsed (an object already at the right node does not move).
func (s *Schedule) Route(in *tm.Instance, o tm.ObjectID) []graph.NodeID {
	route := []graph.NodeID{in.Home[o]}
	for _, id := range s.Order(in, o) {
		v := in.Txns[id].Node
		if route[len(route)-1] != v {
			route = append(route, v)
		}
	}
	return route
}

// CommCost returns the total communication cost: the summed shortest-path
// distance traversed by all objects along their routes.
func (s *Schedule) CommCost(in *tm.Instance) int64 {
	var total int64
	for o := 0; o < in.NumObjects; o++ {
		r := s.Route(in, tm.ObjectID(o))
		for i := 0; i+1 < len(r); i++ {
			total += in.Dist(r[i], r[i+1])
		}
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
// in.Home at time 0. It returns nil for feasible schedules and a
// descriptive error otherwise.
func (s *Schedule) Validate(in *tm.Instance) error {
	return NewChainChecker(in.Home).Check(in, s)
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
