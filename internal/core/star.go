package core

import (
	"fmt"
	"math/rand"

	"dtmsched/internal/depgraph"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
)

// Star is the Section 7 schedule for the star graph (α rays of β nodes
// around a center). Rays are cut into η = ⌈log₂ β⌉ segments of
// exponentially growing length; the center's transaction executes first,
// then period i executes the transactions of V_i — the ith segment of
// every ray — treating segments as clusters that communicate through the
// center with effective bridge length 2^i.
//
// Like the Cluster scheduler, each period runs either the greedy schedule
// (Approach 1) or randomized activation rounds (Approach 2, Algorithm 1
// with segments in place of clusters, enabled transactions sweeping their
// segment center-outward); Auto builds both full schedules and keeps the
// shorter, realizing Theorem 5's O(log β · min(kβ, c^k ln^k m)) factor.
// The rounds are Cluster's shared activation round, one call per period,
// with the departures DESIGN.md §4 lists.
type Star struct {
	// Topo is the star topology the instance lives on.
	Topo *topology.Star
	// Rng drives Approach 2's random activations.
	Rng *rand.Rand
	// Approach selects the per-period algorithm (default auto).
	Approach ClusterApproach
}

// Name implements Scheduler.
func (st *Star) Name() string {
	switch st.Approach {
	case ClusterApproach1:
		return "star/approach1"
	case ClusterApproach2:
		return "star/approach2"
	default:
		return "star/auto"
	}
}

// Schedule implements Scheduler.
func (st *Star) Schedule(in *tm.Instance) (*Result, error) { return Checked(st, in) }

// ScheduleUnchecked implements Unchecked.
func (st *Star) ScheduleUnchecked(in *tm.Instance) (*Result, error) {
	if st.Topo == nil {
		return nil, fmt.Errorf("core: star scheduler needs its topology")
	}
	if in.G != st.Topo.Graph() {
		return nil, fmt.Errorf("core: instance graph is not the scheduler's star")
	}
	switch st.Approach {
	case ClusterApproach1:
		return st.run(in, false)
	case ClusterApproach2:
		return st.run(in, true)
	default:
		r1, err := st.run(in, false)
		if err != nil {
			return nil, err
		}
		r2, err := st.run(in, true)
		if err != nil {
			return nil, err
		}
		if r2.Makespan < r1.Makespan {
			r2.Stats["picked"] = 2
			return r2, nil
		}
		r1.Stats["picked"] = 1
		return r1, nil
	}
}

func (st *Star) run(in *tm.Instance, randomized bool) (*Result, error) {
	if randomized && st.Rng == nil {
		return nil, fmt.Errorf("core: star approach 2 needs an Rng")
	}
	c := newComposer(in)

	name := "star/approach1"
	var a *activation
	var at []int64
	if randomized {
		name = "star/approach2"
		a = newActivation(in, c, st.Rng)
		// A member's local time is its 1-based offset within its
		// segment, so enabled members sweep their segment center-outward
		// and two that share an object run at least their distance apart.
		at = make([]int64, in.NumTxns())
	}
	r := &Result{Algorithm: name, Stats: map[string]int64{}}

	// The center's transaction executes first.
	if txn := in.TxnAt(st.Topo.Center()); txn != nil {
		c.appendOne(txn.ID)
	}

	// all holds one period's pending transactions segment by segment, and
	// bySeg[s] is segment s's window of it. Its capacity is every
	// transaction, so appending never moves a window.
	all := make([]tm.TxnID, 0, in.NumTxns())
	var bySeg [][]tm.TxnID
	eta := st.Topo.NumSegments()
	for i := 1; i <= eta; i++ {
		segs := st.Topo.Segments(i)
		all, bySeg = all[:0], bySeg[:0]
		for _, seg := range segs {
			lo := len(all)
			for p := seg.Lo; p <= seg.Hi; p++ {
				if txn := in.TxnAt(st.Topo.ID(seg.Ray, p)); txn != nil && !c.done[txn.ID] {
					all = append(all, txn.ID)
					if at != nil {
						at[txn.ID] = int64(p - seg.Lo + 1)
					}
				}
			}
			bySeg = append(bySeg, all[lo:len(all):len(all)])
		}
		if len(all) == 0 {
			continue
		}
		if !randomized {
			times, sum := depgraph.Color(in, all, in.Index())
			c.appendBatch(all, times)
			sum.AddStats(r.Stats)
			continue
		}
		a.run(bySeg, at)
	}

	r.Schedule = c.finish()
	r.Makespan = r.Schedule.Makespan()
	var rounds, fallbacks int64
	if a != nil {
		rounds, fallbacks = a.rounds, a.fallbacks
	}
	r.Stats["eta"] = int64(eta)
	r.Stats["rounds"] = rounds
	r.Stats["fallbacks"] = fallbacks
	return r, nil
}
