package main

import (
	"fmt"
	"sort"

	"dtmsched/internal/core"
	"dtmsched/internal/hier"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// cell is one offline input family: a topology under the paper's scheduler
// for it, with a uniform k-of-w workload sized to the topology.
type cell struct {
	Name string `json:"name"`
	W    int    `json:"w"`
	K    int    `json:"k"`
	mk   func() topology.Topology
}

// offlineSpec is a closed loop with one client: engine.Run on a fresh
// instance per job, cells cycling in fixed order, one round = one job per
// cell.
type offlineSpec struct {
	Cells []cell `json:"cells"`
	// Verify is the engine policy ("full" or "fast").
	Verify string `json:"verify"`
	// LowerBound runs the certified bound in the Measure stage.
	LowerBound bool `json:"lower_bound"`
	// MinRounds is the work every run completes, whatever its time budget;
	// the deterministic metrics are taken over exactly these rounds.
	MinRounds int `json:"min_rounds"`
}

// serveSpec is stream.Serve on one grid, fed a pre-generated stream with
// the dtmsched serve defaults (Block, default window and queue, VerifyFast,
// pipeline depth 2, one attempt per window, shed after 3 requeues,
// breaker trip at 1.5).
type serveSpec struct {
	Topo      string  `json:"topo"`
	Side      int     `json:"side"`
	W         int     `json:"w"`
	K         int     `json:"k"`
	Rate      float64 `json:"rate"`
	Txns      int     `json:"txns_per_stream"`
	ChaosRate float64 `json:"chaos_rate"`
	// MinStreams is the work every run completes; the deterministic
	// metrics are taken over exactly these streams.
	MinStreams int `json:"min_streams"`
}

// workload is one named benchmark input set.
type workload struct {
	Name    string       `json:"name"`
	Offline *offlineSpec `json:"offline,omitempty"`
	Serve   *serveSpec   `json:"serve,omitempty"`
}

func clique(n int) func() topology.Topology {
	return func() topology.Topology { return topology.NewClique(n) }
}

func grid(side int) func() topology.Topology {
	return func() topology.Topology { return topology.NewSquareGrid(side) }
}

func fogcloud(fanout []int, linkW []int64) func() topology.Topology {
	return func() topology.Topology { return topology.NewFogCloud(fanout, linkW) }
}

// workloads lists the benchmark's workloads. The object counts of
// offline-certify put ~13–16 requesters on each object, just under
// tsp.ExactLimit, so the certified bound's Held–Karp solves dominate each
// job; offline-schedule skips the bound so conflict-graph builds dominate;
// the two serve workloads share their input stream so their difference is
// the fault layer alone.
func workloads() []workload {
	return []workload{
		{
			Name: "offline-certify",
			Offline: &offlineSpec{
				Cells: []cell{
					{"clique64", 8, 2, clique(64)},
					{"grid12", 20, 2, grid(12)},
					{"line64", 8, 2, func() topology.Topology { return topology.NewLine(64) }},
					{"star4x8", 4, 2, func() topology.Topology { return topology.NewStar(4, 8) }},
					{"cluster4x8", 4, 2, func() topology.Topology { return topology.NewCluster(4, 8, 16) }},
					{"fogcloud4x8", 5, 2, fogcloud([]int{4, 8}, []int64{8, 1})},
				},
				Verify:     "full",
				LowerBound: true,
				MinRounds:  40,
			},
		},
		{
			Name: "offline-schedule",
			Offline: &offlineSpec{
				Cells: []cell{
					{"clique1024", 256, 4, clique(1024)},
					{"grid32", 256, 4, grid(32)},
					{"fogcloud8x8x16", 256, 4, fogcloud([]int{8, 8, 16}, []int64{16, 4, 1})},
				},
				Verify:    "fast",
				MinRounds: 300,
			},
		},
		{
			Name: "serve-steady",
			Serve: &serveSpec{
				Topo: "grid16", Side: 16, W: 64, K: 2, Rate: 1.0,
				Txns: 500000, MinStreams: 4,
			},
		},
		{
			Name: "serve-chaos",
			Serve: &serveSpec{
				Topo: "grid16", Side: 16, W: 64, K: 2, Rate: 1.0,
				Txns: 25000, ChaosRate: 0.1, MinStreams: 3,
			},
		},
	}
}

// findWorkload resolves a workload name.
func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// smoke shrinks a workload to about 1% of its work for tests.
func (w workload) smoke() workload {
	if w.Offline != nil {
		o := *w.Offline
		o.MinRounds = 1
		w.Offline = &o
	}
	if w.Serve != nil {
		s := *w.Serve
		s.Txns /= 100
		s.MinStreams = 1
		w.Serve = &s
	}
	return w
}

// autoScheduler is the paper's scheduler for a topology — the "auto"
// mapping of dtmsched trace — with the randomized schedulers seeded per
// job.
func autoScheduler(topo topology.Topology, seed int64) core.Scheduler {
	switch t := topo.(type) {
	case *topology.Line:
		return &core.Line{Topo: t}
	case *topology.Grid:
		return &core.Grid{Topo: t}
	case *topology.ClusterGraph:
		return &core.Cluster{Topo: t, Rng: xrand.NewDerived(seed, "trace", "cluster")}
	case *topology.Star:
		return &core.Star{Topo: t, Rng: xrand.NewDerived(seed, "trace", "star")}
	case *topology.FogCloud:
		return &hier.Scheduler{Topo: t}
	default:
		return &core.Greedy{}
	}
}
