// Package core implements the scheduling algorithms of "Fast Scheduling in
// Distributed Transactional Memory": the basic greedy schedule of Section
// 2.3 (used directly on Cliques, Hypercubes, Butterflies, and any
// bounded-diameter graph), the two-phase Line schedule of Section 4, the
// subgrid column-major Grid schedule of Section 5, the two Cluster
// approaches of Section 6 (including Algorithm 1), and the segment/period
// Star schedule of Section 7.
//
// Every scheduler emits a schedule.Schedule whose feasibility is
// independently verifiable by schedule.Validate and sim.Run. Schedulers
// never rely on the paper's probabilistic accounting for correctness: exact
// feasibility offsets are computed while composing phases, so emitted
// schedules are feasible by construction and the probabilistic machinery
// only governs how *short* they are.
package core

import (
	"errors"
	"fmt"

	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
)

// errNoRng is returned by randomized schedulers missing their Rng.
var errNoRng = errors.New("core: randomized order requested without an Rng")

// Result is a scheduler's output: the schedule plus algorithm-specific
// accounting used by reports and experiments.
type Result struct {
	// Schedule assigns each transaction its execution step.
	Schedule *schedule.Schedule
	// Makespan is Schedule.Makespan(), cached.
	Makespan int64
	// Algorithm names the algorithm that produced the schedule.
	Algorithm string
	// Stats carries algorithm-specific counters (phases, rounds, ξ, σ,
	// subgrid side, …) keyed by short names.
	Stats map[string]int64
}

func newResult(name string, s *schedule.Schedule) *Result {
	return &Result{Schedule: s, Makespan: s.Makespan(), Algorithm: name, Stats: map[string]int64{}}
}

// Scheduler is the common interface over all algorithms.
type Scheduler interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Schedule computes an execution schedule for the instance. The
	// returned schedule is feasible (schedule.Validate returns nil)
	// whenever the error is nil.
	Schedule(in *tm.Instance) (*Result, error)
}

// Unchecked is implemented by schedulers whose Schedule is
// ScheduleUnchecked followed by the Definition 1 check (Checked). A caller
// that checks every schedule itself — the engine's Verify stage under
// VerifyFull and VerifyFast — calls ScheduleUnchecked, so each schedule is
// checked once; every other caller keeps Schedule's check.
type Unchecked interface {
	ScheduleUnchecked(in *tm.Instance) (*Result, error)
}

// Checked runs s.ScheduleUnchecked and then schedule.Validate on its
// result: the shared post-condition of every scheduler's Schedule.
func Checked(s Unchecked, in *tm.Instance) (*Result, error) {
	r, err := s.ScheduleUnchecked(in)
	if err != nil {
		return nil, err
	}
	if err := r.Schedule.Validate(in); err != nil {
		return nil, fmt.Errorf("%s produced an infeasible schedule: %w", r.Algorithm, err)
	}
	return r, nil
}
