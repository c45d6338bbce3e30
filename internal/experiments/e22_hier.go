package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"dtmsched/internal/core"
	"dtmsched/internal/graph"
	"dtmsched/internal/hier"
	"dtmsched/internal/stats"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

func init() {
	register(Experiment{ID: "E22", Title: "Extension: hierarchical fog–cloud scheduling, tiers × fan-out × locality", Ref: "Adhikari–Busch–Poudel (poly-log fog–cloud extension)", Run: runE22})
}

// e22Shape is one fog–cloud tier configuration of the sweep.
type e22Shape struct {
	name   string
	fanout []int
	weight []int64
	w, k   int
}

// e22Shapes returns the three tier configurations the acceptance criteria
// sweep: a shallow wide tree, a larger fan-out at both levels, and a
// four-tier tree with a steeper link-weight ladder. The object count is a
// multiple of the fog-subtree count so the localized workload can shard
// the object space evenly.
func e22Shapes() []e22Shape {
	return []e22Shape{
		{"f4x8-w8x1", []int{4, 8}, []int64{8, 1}, 64, 2},
		{"f8x8-w8x1", []int{8, 8}, []int64{8, 1}, 128, 2},
		{"f4x4x4-w16x4x1", []int{4, 4, 4}, []int64{16, 4, 1}, 64, 2},
	}
}

// e22Instance generates one localized instance on fc: every node carries
// one transaction, objects shard into one group per fog subtree, and each
// draw stays inside the node's own subtree group with probability
// locality (nodes above the fog tier always draw uniformly).
func e22Instance(cfg Config, fc *topology.FogCloud, sh e22Shape, locality float64, trial int) *tm.Instance {
	g := fc.Graph()
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	wl := tm.LocalizedK(sh.w, sh.k, fc.TierSize(1), locality, e22Subtree(fc))
	r := xrand.NewDerived(cfg.Seed, "E22", sh.name, fmt.Sprint(locality), fmt.Sprint(trial))
	return wl.Generate(r, g, fc, nodes, tm.PlaceAtRandomUser)
}

// e22Subtree maps a node to its fog-subtree group: the tier-1 ancestor's
// index, or -1 for the cloud root (which then draws uniformly).
func e22Subtree(fc *topology.FogCloud) func(node graph.NodeID) int {
	return func(node graph.NodeID) int {
		if fc.TierOf(node) < 1 {
			return -1
		}
		return int(fc.Ancestor(node, 1)) - int(fc.TierStart(1))
	}
}

// runE22 sweeps the hierarchical scheduler (internal/hier) over tier
// configuration × workload locality, measuring makespan against the
// certified instance lower bound so the fog–cloud extension's poly-log
// claim is tested on measured ratios, not assumed. Greedy on the same
// instances is the flat-metric yardstick: it sees the same conflicts but
// schedules them over one global conflict graph. The experiment also pins
// the determinism contract (byte-identical schedules at shard-worker
// counts 1, 4, and 8) and, on hosts with GOMAXPROCS ≥ 4, probes the
// parallel-shard speedup on a dense instance of the largest configuration.
func runE22(cfg Config) (*Result, error) {
	localities := []float64{0.5, 0.9, 1.0}
	if cfg.Quick {
		localities = []float64{0.5, 1.0}
	}
	shapes := e22Shapes()

	res := &Result{ID: "E22", Title: "Extension: hierarchical fog–cloud scheduling, tiers × fan-out × locality", Ref: "Adhikari–Busch–Poudel (poly-log fog–cloud extension)",
		Table: stats.NewTable("config", "tiers", "shards", "locality", "makespan", "bound", "ratio", "greedy-ratio", "cross-pct")}

	sw := newSweep(cfg)
	type cellKey struct {
		shape    string
		locality float64
	}
	var keys []cellKey
	for _, sh := range shapes {
		fc := topology.NewFogCloud(sh.fanout, sh.weight)
		for _, locality := range localities {
			for trial := 0; trial < cfg.Trials; trial++ {
				in := e22Instance(cfg, fc, sh, locality, trial)
				name := fmt.Sprintf("E22/%s/p%.2f/t%d", sh.name, locality, trial)
				sw.addInstance(name+"/hier", in, &hier.Scheduler{Topo: fc, Workers: cfg.HierWorkers})
				sw.addInstance(name+"/greedy", in, &core.Greedy{})
			}
			sw.endCell()
			keys = append(keys, cellKey{sh.name, locality})
		}
	}
	groups, err := sw.run()
	if err != nil {
		return nil, err
	}

	// crossPct[shape][locality] is the mean percentage of transactions
	// classified cross-tier; ratio[shape][locality] the mean measured
	// makespan/bound ratio of the hierarchical scheduler.
	crossPct := map[string]map[float64]float64{}
	ratio := map[string]map[float64]float64{}
	greedyRatio := map[string]map[float64]float64{}
	maxRatio := 0.0
	for gi, key := range keys {
		var sh e22Shape
		for _, s := range shapes {
			if s.name == key.shape {
				sh = s
			}
		}
		fc := topology.NewFogCloud(sh.fanout, sh.weight)
		// Trial cells interleave hier and greedy jobs.
		var hcells, gcells []cell
		for j, c := range groups[gi] {
			if j%2 == 0 {
				hcells = append(hcells, c)
			} else {
				gcells = append(gcells, c)
			}
		}
		var crossSum float64
		for _, c := range hcells {
			total := c.Stats["hier_local_txns"] + c.Stats["hier_cross_txns"]
			if total > 0 {
				crossSum += 100 * float64(c.Stats["hier_cross_txns"]) / float64(total)
			}
		}
		if crossPct[key.shape] == nil {
			crossPct[key.shape] = map[float64]float64{}
			ratio[key.shape] = map[float64]float64{}
			greedyRatio[key.shape] = map[float64]float64{}
		}
		crossPct[key.shape][key.locality] = crossSum / float64(len(hcells))
		ratio[key.shape][key.locality] = meanRatio(hcells)
		greedyRatio[key.shape][key.locality] = meanRatio(gcells)
		if r := meanRatio(hcells); r > maxRatio {
			maxRatio = r
		}
		res.Table.AddRowf(key.shape, fc.Tiers(), fc.TierSize(1), key.locality,
			meanMakespan(hcells), meanBound(hcells), meanRatio(hcells), meanRatio(gcells),
			crossPct[key.shape][key.locality])
	}

	// Determinism: one instance per shape, scheduled at shard-worker
	// counts 1, 4, and 8 — the schedules must be byte-identical.
	deterministic := true
	for _, sh := range shapes {
		fc := topology.NewFogCloud(sh.fanout, sh.weight)
		in := cfg.prepare(e22Instance(cfg, fc, sh, localities[0], 0))
		var base []int64
		for _, workers := range []int{1, 4, 8} {
			r, err := (&hier.Scheduler{Topo: fc, Workers: workers}).Schedule(in)
			if err != nil {
				return nil, fmt.Errorf("E22 determinism probe %s workers=%d: %w", sh.name, workers, err)
			}
			if base == nil {
				base = r.Schedule.Times
			} else if !reflect.DeepEqual(base, r.Schedule.Times) {
				deterministic = false
			}
		}
	}

	// Parallel-shard speedup probe: the largest configuration's family
	// scaled until each of its 8 shards schedules hundreds of
	// transactions, scheduled with 1 worker vs the machine's parallelism;
	// speedup compares the shard-phase wall clocks (best of 3 — the merge
	// pass and the feasibility checks are intentionally serial and
	// identical on both sides). Hosts with fewer than 4 cores cannot
	// realize the ≥2× gate, so they skip the probe and report a fixed
	// sentence instead of a machine-dependent wall-clock ratio.
	speedupOK := true
	speedupDetail := "skipped, the ≥2× gate needs GOMAXPROCS ≥ 4 (see ci.sh hier guard)"
	if runtime.GOMAXPROCS(0) >= 4 {
		parallelWorkers := cfg.HierWorkers
		if parallelWorkers <= 0 {
			parallelWorkers = runtime.GOMAXPROCS(0)
		}
		speedup, probeTxns, probeShape := e22SpeedupProbe(cfg, parallelWorkers)
		speedupOK = speedup >= 2
		speedupDetail = fmt.Sprintf("shard-phase wall, 1 worker vs %d, on %s (%d txns, one per node): %.2f× (GOMAXPROCS=%d)",
			parallelWorkers, probeShape.name, probeTxns, speedup, runtime.GOMAXPROCS(0))
	}

	lo, hi := localities[0], localities[len(localities)-1]
	crossFalls := true
	for _, sh := range shapes {
		if crossPct[sh.name][hi] >= crossPct[sh.name][lo] {
			crossFalls = false
		}
	}
	res.Checks = append(res.Checks,
		checkf("schedules byte-identical at shard-worker counts 1, 4, 8", deterministic,
			"hier.Scheduler at workers ∈ {1,4,8} on every tier configuration"),
		checkf("cross-tier fraction falls as locality rises", crossFalls,
			"cross-pct at locality %.1f vs %.1f: %s %.1f%%→%.1f%%, %s %.1f%%→%.1f%%, %s %.1f%%→%.1f%%",
			lo, hi,
			shapes[0].name, crossPct[shapes[0].name][lo], crossPct[shapes[0].name][hi],
			shapes[1].name, crossPct[shapes[1].name][lo], crossPct[shapes[1].name][hi],
			shapes[2].name, crossPct[shapes[2].name][lo], crossPct[shapes[2].name][hi]),
		checkf("measured ratios stay in the poly-log regime", maxRatio <= 16,
			"max mean makespan/bound ratio %.2f over every tier configuration × locality (cap 16 ≈ 2·log²(fan-out) on these shapes)", maxRatio),
		checkf("hierarchical scheduling beats the flat yardstick at full locality", e22BeatsGreedy(ratio, greedyRatio, shapes, hi),
			"at locality %.1f the hier ratio is at most greedy's on every shape (%s %.2f vs %.2f, %s %.2f vs %.2f, %s %.2f vs %.2f) — subtree shards overlap in time instead of serializing into one global coloring", hi,
			shapes[0].name, ratio[shapes[0].name][hi], greedyRatio[shapes[0].name][hi],
			shapes[1].name, ratio[shapes[1].name][hi], greedyRatio[shapes[1].name][hi],
			shapes[2].name, ratio[shapes[2].name][hi], greedyRatio[shapes[2].name][hi]),
		checkf("parallel shards speed up the shard phase", speedupOK, "%s", speedupDetail))
	res.Notes = append(res.Notes,
		"ratio divides measured makespan by the certified instance lower bound — the poly-log claim is tested, not assumed",
		"greedy-ratio is the same instance under the flat global-coloring scheduler; cross-pct is the share of transactions whose objects span fog subtrees",
		fmt.Sprintf("speedup probe: %s", speedupDetail))
	return res, nil
}

// e22BeatsGreedy reports whether the hierarchical ratio is at most the
// flat greedy ratio on every shape at the given locality.
func e22BeatsGreedy(ratio, greedyRatio map[string]map[float64]float64, shapes []e22Shape, locality float64) bool {
	for _, sh := range shapes {
		if ratio[sh.name][locality] > greedyRatio[sh.name][locality] {
			return false
		}
	}
	return true
}

// e22ProbeShape is the speedup probe's tree: the largest configuration of
// the sweep scaled until the shard phase is measurable — the same 8 fog
// subtrees as f8x8, each grown to a few hundred edge nodes so every shard
// schedules hundreds of transactions (one per node, as everywhere in the
// batch model). Fully local workload: the probe times the parallel shard
// phase, not the (serial, identical-on-both-sides) merge pass.
func e22ProbeShape(quick bool) e22Shape {
	if quick {
		return e22Shape{"f8x256-w8x1", []int{8, 256}, []int64{8, 1}, 2048, 3}
	}
	return e22Shape{"f8x512-w8x1", []int{8, 512}, []int64{8, 1}, 4096, 3}
}

// e22SpeedupProbe schedules one fully-local instance of the probe shape
// with 1 shard worker and with parallel workers, returning the best-of-3
// shard-phase speedup, the probe's transaction count, and the shape. The
// schedules themselves are byte-identical; only the wall clock differs.
func e22SpeedupProbe(cfg Config, parallel int) (float64, int, e22Shape) {
	sh := e22ProbeShape(cfg.Quick)
	fc := topology.NewFogCloud(sh.fanout, sh.weight)
	g := fc.Graph()
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	wl := tm.LocalizedK(sh.w, sh.k, fc.TierSize(1), 1.0, e22Subtree(fc))
	in := wl.Generate(xrand.NewDerived(cfg.Seed, "E22", "speedup", sh.name), g, fc, nodes, tm.PlaceAtRandomUser)

	wall := func(workers int) time.Duration {
		best := time.Duration(0)
		for rep := 0; rep < 3; rep++ {
			r, err := (&hier.Scheduler{Topo: fc, Workers: workers}).Schedule(in)
			if err != nil {
				return 0
			}
			d := time.Duration(r.Stats["hier_shard_wall_ns"])
			if best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	serial := wall(1)
	if parallel <= 1 {
		// 1 worker vs 1 worker would just measure timer jitter.
		return 1, len(nodes), sh
	}
	par := wall(parallel)
	if par <= 0 || serial <= 0 {
		return 0, len(nodes), sh
	}
	return float64(serial) / float64(par), len(nodes), sh
}
