package core

import (
	"fmt"

	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
)

// Line is the Section 4 two-phase schedule for the line graph. With ℓ the
// longest shortest walk of any object, the line decomposes into consecutive
// subgraphs of ℓ nodes; the even subgraphs execute in phase 1 and the odd
// subgraphs in phase 2, each phase preceded by an (ℓ−1)-step positioning
// period and sweeping each subgraph left to right in ℓ steps. Total: at
// most 4ℓ−2 steps, an asymptotically optimal factor-4 approximation
// (Theorem 2).
type Line struct {
	// Topo is the line topology the instance lives on.
	Topo *topology.Line
}

// Name implements Scheduler.
func (l *Line) Name() string { return "line" }

// Schedule implements Scheduler.
func (l *Line) Schedule(in *tm.Instance) (*Result, error) { return Checked(l, in) }

// ScheduleUnchecked implements Unchecked.
func (l *Line) ScheduleUnchecked(in *tm.Instance) (*Result, error) {
	if l.Topo == nil {
		return nil, fmt.Errorf("core: line scheduler needs its topology")
	}
	n := l.Topo.N()
	if in.G != l.Topo.Graph() {
		return nil, fmt.Errorf("core: instance graph is not the scheduler's line")
	}

	walk := l.maxWalk(in)
	ell := walk
	if ell < 1 {
		ell = 1
	}
	if ell > int64(n) {
		ell = int64(n) // single subgraph spanning the whole line
	}
	L := int(ell)

	// Execution times by the paper's timetable. Node v belongs to
	// subgraph y = v/L with offset j = v−yL. Phase 1 (even y): period 1
	// lasts ℓ−1 steps, period 2 executes offset j at step ℓ+j. Phase 2
	// (odd y): positioning ends at 3ℓ−2, offset j executes at 3ℓ−1+j.
	times := make([]int64, in.NumTxns())
	for i := range in.Txns {
		v := int(in.Txns[i].Node)
		y, j := v/L, int64(v%L)
		if y%2 == 0 {
			times[i] = ell + j
		} else {
			times[i] = 3*ell - 1 + j
		}
	}
	ids := make([]tm.TxnID, in.NumTxns())
	for i := range ids {
		ids[i] = tm.TxnID(i)
	}
	c := newComposer(in)
	c.appendBatch(ids, times)
	r := newResult(l.Name(), c.finish())
	r.Stats["ell"] = ell
	r.Stats["maxwalk"] = walk
	r.Stats["bound4ell"] = 4*ell - 2
	return r, nil
}

// maxWalk computes ℓ exactly on the line: for each object the shortest
// walk from its home through all requesters is the requesters' span plus
// the smaller overhang from home to the span's nearer end.
func (l *Line) maxWalk(in *tm.Instance) int64 {
	var ell int64
	for o := 0; o < in.NumObjects; o++ {
		users := in.Users(tm.ObjectID(o))
		if len(users) == 0 {
			continue
		}
		lo, hi := graph.NodeID(l.Topo.N()), graph.NodeID(-1)
		for _, id := range users {
			v := in.Txns[id].Node
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		h := in.Home[o]
		span := int64(hi - lo)
		walk := span
		switch {
		case h < lo:
			walk = int64(hi - h)
		case h > hi:
			walk = int64(h - lo)
		default:
			left, right := int64(h-lo), int64(hi-h)
			if left < right {
				walk = span + left
			} else {
				walk = span + right
			}
		}
		if walk > ell {
			ell = walk
		}
	}
	return ell
}
