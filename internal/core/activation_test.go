package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"dtmsched/internal/depgraph"
	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// The reference below is the randomized round as Cluster and Star each ran
// it before they shared activation: one copy per scheduler, rebuilding a
// map of active objects and a seen set per object every round. The shared
// round must draw exactly what these draw.

// refClusterSchedule is Cluster.ScheduleUnchecked over the reference round.
func refClusterSchedule(cs *Cluster, in *tm.Instance) (*Result, error) {
	approach1 := func() (*Result, error) {
		r, err := (&Greedy{}).ScheduleUnchecked(in)
		if err != nil {
			return nil, err
		}
		r.Algorithm = "cluster/approach1"
		r.Stats["sigma"] = int64(refSigma(cs, in))
		return r, nil
	}
	switch cs.Approach {
	case ClusterApproach1:
		return approach1()
	case ClusterApproach2:
		return refClusterApproach2(cs, in)
	default:
		r1, err := approach1()
		if err != nil {
			return nil, err
		}
		r2, err := refClusterApproach2(cs, in)
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

// refSigma counts σ with one map of clusters per object.
func refSigma(cs *Cluster, in *tm.Instance) int {
	sigma := 0
	for o := 0; o < in.NumObjects; o++ {
		clusters := make(map[int]struct{})
		for _, id := range in.Users(tm.ObjectID(o)) {
			clusters[cs.Topo.ClusterOf(in.Txns[id].Node)] = struct{}{}
		}
		if len(clusters) > sigma {
			sigma = len(clusters)
		}
	}
	return sigma
}

func refClusterApproach2(cs *Cluster, in *tm.Instance) (*Result, error) {
	if cs.Rng == nil {
		return nil, fmt.Errorf("core: cluster approach 2 needs an Rng")
	}
	alpha := cs.Topo.Alpha()
	n := in.G.NumNodes()
	w := in.NumObjects
	m := max(n, w, 2)
	k := max(in.MaxK(), 1)
	sigma := refSigma(cs, in)

	lnM := math.Log(float64(m))
	psi := int(math.Ceil(float64(sigma) / (24 * lnM)))
	if psi < 1 {
		psi = 1
	}
	zeta := roundCap(k, lnM)

	phaseOf := make([]int, alpha)
	for i := range phaseOf {
		phaseOf[i] = cs.Rng.Intn(psi)
	}

	pendingByCluster := make([][]tm.TxnID, alpha)
	for i := range in.Txns {
		cl := cs.Topo.ClusterOf(in.Txns[i].Node)
		pendingByCluster[cl] = append(pendingByCluster[cl], tm.TxnID(i))
	}

	c := newComposer(in)
	var totalRounds, fallbacks int64

	runPhase := func(clusters []int) {
		inPhase := make(map[int]bool, len(clusters))
		pendingCount := 0
		for _, cl := range clusters {
			inPhase[cl] = true
			pendingCount += len(pendingByCluster[cl])
		}
		const stallLimit = 5000
		stall := 0
		for round := int64(0); pendingCount > 0 && round < zeta && stall < stallLimit; round++ {
			totalRounds++
			active := make(map[tm.ObjectID]int)
			for o := 0; o < w; o++ {
				var choices []int
				seen := make(map[int]bool)
				for _, id := range in.Users(tm.ObjectID(o)) {
					if c.done[id] {
						continue
					}
					cl := cs.Topo.ClusterOf(in.Txns[id].Node)
					if inPhase[cl] && !seen[cl] {
						seen[cl] = true
						choices = append(choices, cl)
					}
				}
				if len(choices) > 0 {
					sort.Ints(choices)
					active[tm.ObjectID(o)] = choices[cs.Rng.Intn(len(choices))]
				}
			}
			var ids []tm.TxnID
			var local []int64
			for _, cl := range clusters {
				var pos int64
				var still []tm.TxnID
				for _, id := range pendingByCluster[cl] {
					enabled := true
					for _, o := range in.Txns[id].Objects {
						if a, ok := active[o]; !ok || a != cl {
							enabled = false
							break
						}
					}
					if enabled {
						pos++
						ids = append(ids, id)
						local = append(local, pos)
						pendingCount--
					} else {
						still = append(still, id)
					}
				}
				pendingByCluster[cl] = still
			}
			if len(ids) > 0 {
				c.appendBatch(ids, local)
				stall = 0
			} else {
				stall++
			}
		}
		for _, cl := range clusters {
			for _, id := range pendingByCluster[cl] {
				fallbacks++
				c.appendOne(id)
			}
			pendingByCluster[cl] = nil
		}
	}

	for p := 0; p < psi; p++ {
		var clusters []int
		for cl, ph := range phaseOf {
			if ph == p {
				clusters = append(clusters, cl)
			}
		}
		runPhase(clusters)
	}

	r := newResult("cluster/approach2", c.finish())
	r.Stats["sigma"] = int64(sigma)
	r.Stats["psi"] = int64(psi)
	r.Stats["zeta_cap"] = zeta
	r.Stats["rounds"] = totalRounds
	r.Stats["fallbacks"] = fallbacks
	return r, nil
}

// refStarSchedule is Star.ScheduleUnchecked over the reference round.
func refStarSchedule(st *Star, in *tm.Instance) (*Result, error) {
	switch st.Approach {
	case ClusterApproach1:
		return refStarRun(st, in, false)
	case ClusterApproach2:
		return refStarRun(st, in, true)
	default:
		r1, err := refStarRun(st, in, false)
		if err != nil {
			return nil, err
		}
		r2, err := refStarRun(st, in, true)
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

func refStarRun(st *Star, in *tm.Instance, randomized bool) (*Result, error) {
	if randomized && st.Rng == nil {
		return nil, fmt.Errorf("core: star approach 2 needs an Rng")
	}
	c := newComposer(in)
	var totalRounds, fallbacks int64

	name := "star/approach1"
	if randomized {
		name = "star/approach2"
	}
	r := &Result{Algorithm: name, Stats: map[string]int64{}}

	if txn := in.TxnAt(st.Topo.Center()); txn != nil {
		c.appendOne(txn.ID)
	}

	eta := st.Topo.NumSegments()
	for i := 1; i <= eta; i++ {
		segs := st.Topo.Segments(i)
		if len(segs) == 0 {
			continue
		}
		bySeg := make([][]tm.TxnID, len(segs))
		var all []tm.TxnID
		for s, seg := range segs {
			for _, v := range seg.Nodes(st.Topo) {
				if txn := in.TxnAt(v); txn != nil && !c.done[txn.ID] {
					bySeg[s] = append(bySeg[s], txn.ID)
					all = append(all, txn.ID)
				}
			}
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
		rounds, fb := refRandomizedPeriod(st, in, c, segs, bySeg)
		totalRounds += rounds
		fallbacks += fb
	}

	r.Schedule = c.finish()
	r.Makespan = r.Schedule.Makespan()
	r.Stats["eta"] = int64(eta)
	r.Stats["rounds"] = totalRounds
	r.Stats["fallbacks"] = fallbacks
	return r, nil
}

func refRandomizedPeriod(st *Star, in *tm.Instance, c *composer, segs []topology.Segment, bySeg [][]tm.TxnID) (rounds, fallbacks int64) {
	pendingCount := 0
	segOf := make(map[tm.TxnID]int)
	for s := range bySeg {
		pendingCount += len(bySeg[s])
		for _, id := range bySeg[s] {
			segOf[id] = s
		}
	}
	n := in.G.NumNodes()
	m := max(n, in.NumObjects, 2)
	k := max(in.MaxK(), 1)
	zeta := roundCap(k, math.Log(float64(m)))

	const stallLimit = 5000
	stall := 0
	for round := int64(0); pendingCount > 0 && round < zeta && stall < stallLimit; round++ {
		rounds++
		active := make(map[tm.ObjectID]int)
		index := in.Index()
		for o := 0; o < in.NumObjects; o++ {
			var choices []int
			seen := make(map[int]bool)
			for _, id := range index.Members(tm.ObjectID(o)) {
				if s, ok := segOf[id]; ok && !c.done[id] && !seen[s] {
					seen[s] = true
					choices = append(choices, s)
				}
			}
			if len(choices) > 0 {
				sort.Ints(choices)
				active[tm.ObjectID(o)] = choices[st.Rng.Intn(len(choices))]
			}
		}
		var ids []tm.TxnID
		var local []int64
		for s := range bySeg {
			var still []tm.TxnID
			for _, id := range bySeg[s] {
				enabled := true
				for _, o := range in.Txns[id].Objects {
					if a, ok := active[o]; !ok || a != s {
						enabled = false
						break
					}
				}
				if enabled {
					_, pos := st.Topo.RayOf(in.Txns[id].Node)
					ids = append(ids, id)
					local = append(local, int64(pos-segs[s].Lo+1))
					pendingCount--
					delete(segOf, id)
				} else {
					still = append(still, id)
				}
			}
			bySeg[s] = still
		}
		if len(ids) > 0 {
			c.appendBatch(ids, local)
			stall = 0
		} else {
			stall++
		}
	}
	for s := range bySeg {
		for _, id := range bySeg[s] {
			fallbacks++
			c.appendOne(id)
		}
		bySeg[s] = nil
	}
	return rounds, fallbacks
}

// deterministicStats drops the wall-clock keys (depgraph_build_ns), which
// differ between any two runs.
func deterministicStats(stats map[string]int64) map[string]int64 {
	out := maps.Clone(stats)
	for key := range out {
		if strings.HasSuffix(key, "_ns") {
			delete(out, key)
		}
	}
	return out
}

// TestActivationMatchesReference: Cluster and Star, through the shared
// activation round, emit exactly the reference's schedules and stats
// (rounds, fallbacks, picked, σ, ψ, ζ and the depgraph counts) for
// Approach 2 and Auto, with transactions on a random half or more of the
// nodes in shuffled ID order. The cases are star and cluster shapes whose
// rays span several segments and whose phases hold several clusters, under
// uniform, hotspot and Zipf workloads with 100 seeds each, plus 24
// one-node groups that all request the same four objects, where most
// draws enable nothing and the stall limit and the fallback take over.
// Each stalling schedule runs thousands of reference rounds, so those
// take 4 seeds.
func TestActivationMatchesReference(t *testing.T) {
	type workload func(r *rand.Rand, n int) tm.Workload
	random := func(wl func(w, k int) tm.Workload) workload {
		return func(r *rand.Rand, n int) tm.Workload {
			w := 2 + r.Intn(n)
			return wl(w, 1+r.Intn(min(w, 4)))
		}
	}
	mixed := []workload{random(tm.UniformK), random(tm.HotspotK), random(tm.ZipfK)}
	stalling := []workload{func(*rand.Rand, int) tm.Workload { return tm.UniformK(4, 4) }}

	type shape struct {
		name      string
		topo      topology.Topology
		workloads []workload
		seeds     int64
		schedule  func(ap ClusterApproach, rng *rand.Rand) Unchecked
		ref       func(ap ClusterApproach, rng *rand.Rand, in *tm.Instance) (*Result, error)
	}
	star := func(alpha, beta int, wls []workload, seeds int64) shape {
		topo := topology.NewStar(alpha, beta)
		return shape{fmt.Sprintf("star%dx%d", alpha, beta), topo, wls, seeds,
			func(ap ClusterApproach, rng *rand.Rand) Unchecked { return &Star{Topo: topo, Rng: rng, Approach: ap} },
			func(ap ClusterApproach, rng *rand.Rand, in *tm.Instance) (*Result, error) {
				return refStarSchedule(&Star{Topo: topo, Rng: rng, Approach: ap}, in)
			}}
	}
	cluster := func(alpha, beta int, gamma int64, wls []workload, seeds int64) shape {
		topo := topology.NewCluster(alpha, beta, gamma)
		return shape{fmt.Sprintf("cluster%dx%d", alpha, beta), topo, wls, seeds,
			func(ap ClusterApproach, rng *rand.Rand) Unchecked {
				return &Cluster{Topo: topo, Rng: rng, Approach: ap}
			},
			func(ap ClusterApproach, rng *rand.Rand, in *tm.Instance) (*Result, error) {
				return refClusterSchedule(&Cluster{Topo: topo, Rng: rng, Approach: ap}, in)
			}}
	}
	shapes := []shape{
		star(4, 8, mixed, 100), star(3, 5, mixed, 100), star(6, 13, mixed, 100),
		cluster(4, 8, 16, mixed, 100), cluster(3, 5, 5, mixed, 100), cluster(12, 3, 6, mixed, 100),
		star(24, 2, stalling, 4), cluster(24, 2, 2, stalling, 4),
	}
	var fallbacks int64
	for _, sh := range shapes {
		g := sh.topo.Graph()
		metric := graph.FuncMetric(sh.topo.Dist)
		for wi, wl := range sh.workloads {
			for seed := int64(1); seed <= sh.seeds; seed++ {
				r := xrand.New(seed*31 + int64(wi))
				// Transactions on a shuffled subset of the nodes: ID order
				// is not group order, so the draw must sort its choices.
				nodes := g.Nodes()
				r.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
				nodes = nodes[:len(nodes)/2+r.Intn(len(nodes)/2+1)]
				in := wl(r, len(nodes)).Generate(r, g, metric, nodes, tm.PlaceAtRandomUser)
				for _, ap := range []ClusterApproach{ClusterApproach2, ClusterAuto} {
					got, err := sh.schedule(ap, xrand.New(seed)).ScheduleUnchecked(in)
					if err != nil {
						t.Fatal(err)
					}
					want, err := sh.ref(ap, xrand.New(seed), in)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s %s seed %d approach %d", sh.name, in, seed, ap)
					if got.Algorithm != want.Algorithm || got.Makespan != want.Makespan {
						t.Fatalf("%s: %s makespan %d, reference %s makespan %d",
							label, got.Algorithm, got.Makespan, want.Algorithm, want.Makespan)
					}
					if !slices.Equal(got.Schedule.Times, want.Schedule.Times) {
						t.Fatalf("%s: times %v, reference %v", label, got.Schedule.Times, want.Schedule.Times)
					}
					if gs, ws := deterministicStats(got.Stats), deterministicStats(want.Stats); !maps.Equal(gs, ws) {
						t.Fatalf("%s: stats %v, reference %v", label, gs, ws)
					}
					fallbacks += got.Stats["fallbacks"]
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no case reached the fallback, so the stall limit went unchecked")
	}
	t.Logf("%d transactions reached the fallback", fallbacks)
}

// TestApproach2Allocs: an Approach 2 schedule allocates its round state
// once, not per round or per object. The shared round makes 32 (star4x8)
// and 45 (cluster4x8) mallocs per schedule on this workload, and the two
// per-scheduler copies it replaced made 472 and 404; the bounds leave
// room above the first, far below the second.
func TestApproach2Allocs(t *testing.T) {
	starTopo := topology.NewStar(4, 8)
	clusterTopo := topology.NewCluster(4, 8, 16)
	for _, tc := range []struct {
		name  string
		topo  topology.Topology
		bound float64
		s     func(rng *rand.Rand) Unchecked
	}{
		{"star4x8", starTopo, 64, func(rng *rand.Rand) Unchecked {
			return &Star{Topo: starTopo, Rng: rng, Approach: ClusterApproach2}
		}},
		{"cluster4x8", clusterTopo, 64, func(rng *rand.Rand) Unchecked {
			return &Cluster{Topo: clusterTopo, Rng: rng, Approach: ClusterApproach2}
		}},
	} {
		g := tc.topo.Graph()
		in := tm.UniformK(4, 2).Generate(xrand.New(1), g, graph.FuncMetric(tc.topo.Dist), g.Nodes(), tm.PlaceAtRandomUser)
		in.Index()
		in.TxnAt(0)
		rng := xrand.New(1)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := tc.s(rng).ScheduleUnchecked(in); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f mallocs per schedule", tc.name, allocs)
		if allocs > tc.bound {
			t.Errorf("%s: approach 2 made %.0f mallocs per schedule, want ≤ %.0f", tc.name, allocs, tc.bound)
		}
	}
}
