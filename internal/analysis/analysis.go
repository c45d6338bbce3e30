// Package analysis derives explanatory statistics from a schedule: the
// per-step concurrency profile, per-object travel/wait decomposition, and
// the critical chain of tight object handoffs that pins the makespan.
// The dtmsched CLI exposes it via -analyze; it is also the tool used when
// investigating why a scheduler's constant is what it is.
package analysis

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
)

// ObjectStats decomposes one object's lifetime under a schedule.
type ObjectStats struct {
	Object tm.ObjectID
	// Users is how many transactions requested the object.
	Users int
	// Travel is the total distance (= steps in transit) the object
	// covers along its route.
	Travel int64
	// Wait is the total steps the object sat at requesters' nodes
	// between arrival and use, plus gaps between use and next demand.
	Wait int64
	// LastUse is the step of the object's final use.
	LastUse int64
}

// Report is the full analysis of one (instance, schedule) pair.
type Report struct {
	Makespan int64
	// PeakParallelism is the largest number of transactions committing
	// in any single step; MeanParallelism averages over busy steps.
	PeakParallelism int
	MeanParallelism float64
	// BusySteps counts steps in which at least one transaction commits.
	BusySteps int
	// CriticalLen is the number of transactions on the longest chain of
	// tight handoffs (each executing exactly when its predecessor's
	// object arrives); CriticalChain lists them in order.
	CriticalLen   int
	CriticalChain []tm.TxnID
	// Objects has one entry per requested object, sorted by travel
	// (descending) — the "hottest movers" first.
	Objects []ObjectStats
}

// Analyze computes the report. The schedule must be feasible for the
// instance (callers validate first).
func Analyze(in *tm.Instance, s *schedule.Schedule) *Report {
	rep := &Report{Makespan: s.Makespan()}

	// Concurrency profile.
	perStep := make(map[int64]int)
	for _, t := range s.Times {
		perStep[t]++
	}
	total := 0
	for _, c := range perStep {
		total += c
		if c > rep.PeakParallelism {
			rep.PeakParallelism = c
		}
	}
	rep.BusySteps = len(perStep)
	if rep.BusySteps > 0 {
		rep.MeanParallelism = float64(total) / float64(rep.BusySteps)
	}

	// Object decomposition. An object's slack telescopes: the gaps
	// between its consecutive uses, less the distance covered in each,
	// sum to its last use minus its travel.
	h := s.Handoffs(in)
	travel := s.Travel(in)
	for o := 0; o < in.NumObjects; o++ {
		oid := tm.ObjectID(o)
		users := h.Of(oid)
		if len(users) == 0 {
			continue
		}
		st := ObjectStats{Object: oid, Users: len(users), Travel: travel[o], LastUse: s.Times[users[len(users)-1]]}
		st.Wait = st.LastUse - st.Travel
		rep.Objects = append(rep.Objects, st)
	}
	sort.Slice(rep.Objects, func(i, j int) bool {
		if rep.Objects[i].Travel != rep.Objects[j].Travel {
			return rep.Objects[i].Travel > rep.Objects[j].Travel
		}
		return rep.Objects[i].Object < rep.Objects[j].Object
	})

	rep.CriticalChain = criticalChain(in, s, h.Sweep)
	rep.CriticalLen = len(rep.CriticalChain)
	return rep
}

// criticalChain finds the longest chain T_1 → T_2 → … where consecutive
// transactions share an object and T_{i+1} executes exactly when the
// object can first arrive from T_i (a tight handoff). Chains of tight
// handoffs are what the composer and coloring lower bounds manifest as,
// and their length is what pins the makespan from below. The DP walks
// the schedule's sweep, where each object's previous holder is the last
// transaction seen to use it. The result is deterministic: among equally
// long chains the one with the smaller tail ID wins.
func criticalChain(in *tm.Instance, s *schedule.Schedule, sweep []tm.TxnID) []tm.TxnID {
	m := in.NumTxns()
	holder := make([]tm.TxnID, in.NumObjects)
	for o := range holder {
		holder[o] = -1
	}
	bestLen := make([]int, m)
	bestPrev := make([]tm.TxnID, m)
	for i := range bestPrev {
		bestPrev[i] = -1
	}
	var tail tm.TxnID = -1
	tailLen := 0
	for _, id := range sweep {
		bestLen[id] = 1
		txn := &in.Txns[id]
		for _, o := range txn.Objects {
			p := holder[o]
			holder[o] = id
			if p < 0 || s.Times[id] != s.Times[p]+in.Dist(in.Txns[p].Node, txn.Node) {
				continue
			}
			if bestLen[p]+1 > bestLen[id] {
				bestLen[id] = bestLen[p] + 1
				bestPrev[id] = p
			}
		}
		if bestLen[id] > tailLen || (bestLen[id] == tailLen && id < tail) {
			tailLen, tail = bestLen[id], id
		}
	}
	if tail < 0 {
		return nil
	}
	chain := make([]tm.TxnID, 0, tailLen)
	for id := tail; id >= 0; id = bestPrev[id] {
		chain = append(chain, id)
	}
	slices.Reverse(chain)
	return chain
}

// String renders the report for terminals.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "makespan %d over %d busy steps; parallelism peak %d, mean %.2f\n",
		r.Makespan, r.BusySteps, r.PeakParallelism, r.MeanParallelism)
	fmt.Fprintf(&sb, "critical chain: %d tight handoffs", r.CriticalLen)
	if r.CriticalLen > 0 {
		sb.WriteString(" (txns")
		limit := r.CriticalLen
		if limit > 12 {
			limit = 12
		}
		for _, id := range r.CriticalChain[:limit] {
			fmt.Fprintf(&sb, " %d", id)
		}
		if r.CriticalLen > limit {
			sb.WriteString(" …")
		}
		sb.WriteString(")")
	}
	sb.WriteByte('\n')
	limit := len(r.Objects)
	if limit > 8 {
		limit = 8
	}
	for _, o := range r.Objects[:limit] {
		fmt.Fprintf(&sb, "object %-4d users=%-4d travel=%-6d wait=%-6d lastUse=%d\n",
			o.Object, o.Users, o.Travel, o.Wait, o.LastUse)
	}
	if len(r.Objects) > limit {
		fmt.Fprintf(&sb, "… %d more objects\n", len(r.Objects)-limit)
	}
	return sb.String()
}
