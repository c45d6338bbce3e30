// Package windows extends the one-shot batch model to repeated batches
// (windows) of transactions, in the spirit of the window-based contention
// management of Sharma & Busch that the paper cites [33]: every node
// receives a fresh transaction each window, and windows execute either
// behind a global barrier (each window starts after the previous one
// fully finishes) or pipelined (a window's transaction may start as soon
// as its own objects are available, overlapping the previous window's
// stragglers).
//
// Object homes evolve across windows: window i+1 finds each object where
// window i released it. Feasibility spans the whole sequence: per-object
// handoff chains cross window boundaries, and transactions sharing a node
// (one per window) execute at distinct steps.
package windows

import (
	"fmt"
	"math/rand"

	"dtmsched/internal/depgraph"
	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
)

// Sequence is a multi-window workload over one communication graph.
type Sequence struct {
	// G and Metric describe the network.
	G      *graph.Graph
	Metric graph.Metric
	// NumObjects is the shared object count (constant across windows).
	NumObjects int
	// Home is each object's initial position before window 0.
	Home []graph.NodeID
	// Windows holds the per-window instances; all share G, Metric, and
	// NumObjects, with homes chained automatically during scheduling.
	Windows []*tm.Instance
}

// Generate builds a Sequence of `count` windows, each drawn independently
// from the workload over all nodes. Homes for window 0 follow the
// placement policy; later windows inherit positions.
func Generate(r *rand.Rand, g *graph.Graph, metric graph.Metric, w tm.Workload, count int, place tm.Placement) (*Sequence, error) {
	if count < 1 {
		return nil, fmt.Errorf("windows: count %d < 1", count)
	}
	seq := &Sequence{G: g, Metric: metric, NumObjects: w.W}
	for i := 0; i < count; i++ {
		in := w.Generate(r, g, metric, g.Nodes(), place)
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("windows: window %d invalid: %w", i, err)
		}
		seq.Windows = append(seq.Windows, in)
	}
	seq.Home = append([]graph.NodeID(nil), seq.Windows[0].Home...)
	return seq, nil
}

// Result reports one multi-window execution.
type Result struct {
	// Mode is "barrier" or "pipelined".
	Mode string
	// Makespan is the completion step of the last window's last
	// transaction.
	Makespan int64
	// PerWindow holds each window's schedule (times local to the global
	// clock).
	PerWindow []*schedule.Schedule
	// WindowEnd[i] is the last commit step of window i.
	WindowEnd []int64
}

// Run schedules the sequence window by window. With pipelined = false, a
// global barrier separates windows: each window takes the §2.3 greedy
// coloring shifted past the previous window's completion. With pipelined
// = true, transactions are list-scheduled across window boundaries in
// coloring order: each starts at the earliest step its own objects and
// node allow, so a window's cold transactions overlap the previous
// window's stragglers.
func Run(seq *Sequence, pipelined bool) (*Result, error) {
	mode := "barrier"
	if pipelined {
		mode = "pipelined"
	}
	res := &Result{Mode: mode}

	chain := schedule.NewChain(seq.Metric, seq.Home, seq.G.NumNodes())

	// An independent cross-check of the composed sequence: the checker
	// re-derives the per-object handoff chains and per-node commit
	// ordering from the schedules alone, so a bookkeeping bug in either
	// mode surfaces as an error instead of an infeasible (but silently
	// accepted) sequence.
	checker := schedule.NewChainChecker(seq.Home)

	for wi, in := range seq.Windows {
		h := depgraph.New(in, nil, in.Index())
		ranks := h.Ranks(h.OrderByNode())

		s := schedule.New(in.NumTxns())
		if pipelined {
			// Cross-window list scheduling: process this window's
			// transactions in coloring order; each takes the earliest
			// step after its objects can arrive and its node is free.
			for _, i := range h.OrderByColor(ranks) {
				txn := &in.Txns[h.IDs[i]]
				s.Times[txn.ID] = chain.Earliest(txn.Node, txn.Objects)
				chain.Commit(txn.Node, txn.Objects, s.Times[txn.ID])
			}
		} else {
			// Barrier: one shift past every earlier window's last commit
			// plus the exact object and node constraints (the composer
			// pattern).
			local := h.Summarize().Times(ranks)
			delta := chain.Offset(in, h.IDs, local, res.Makespan)
			for i, id := range h.IDs {
				txn := &in.Txns[id]
				s.Times[id] = local[i] + delta
				chain.Commit(txn.Node, txn.Objects, s.Times[id])
			}
		}
		if err := checker.Check(in, s); err != nil {
			return nil, fmt.Errorf("windows: %s mode window %d fails the cross-check: %w", mode, wi, err)
		}
		windowEnd := s.Makespan()
		res.PerWindow = append(res.PerWindow, s)
		res.WindowEnd = append(res.WindowEnd, windowEnd)
		if windowEnd > res.Makespan {
			res.Makespan = windowEnd
		}
	}
	return res, nil
}
