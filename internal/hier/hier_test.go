package hier

import (
	"reflect"
	"testing"

	"dtmsched/internal/core"
	"dtmsched/internal/depgraph"
	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// fixture builds a 7-node fogcloud ([2,2], weights [4,1]) with a hand-built
// instance pinning every classification case:
//
//	nodes: 0 = cloud; 1, 2 = fog; 3, 4 under fog 1; 5, 6 under fog 2
//	o0: users {t3, t4}, home 3      → local to shard 0
//	o1: users {t5, t6}, home 5      → local to shard 1
//	o2: users {t3, t5}, home 5      → cross (users span shards)
//	o3: users {t0}, home 0          → cross (cloud node, above the tier)
//	o4: users {t4}, home 6          → cross (home outside the user's shard)
func fixture() (*topology.FogCloud, *tm.Instance) {
	fc := topology.NewFogCloud([]int{2, 2}, []int64{4, 1})
	txns := []tm.Txn{
		{Node: 0, Objects: []tm.ObjectID{3}},
		{Node: 3, Objects: []tm.ObjectID{0, 2}},
		{Node: 4, Objects: []tm.ObjectID{0, 4}},
		{Node: 5, Objects: []tm.ObjectID{1, 2}},
		{Node: 6, Objects: []tm.ObjectID{1}},
	}
	home := []graph.NodeID{3, 5, 5, 0, 6}
	in := tm.NewInstance(fc.Graph(), fc, 5, txns, home)
	return fc, in
}

func TestDecomposePinned(t *testing.T) {
	fc, in := fixture()
	d := Decompose(fc, in, 1)
	if d.Shards != 2 || d.Tier != 1 {
		t.Fatalf("shards=%d tier=%d", d.Shards, d.Tier)
	}
	if want := []int{-1, 0, 1, 0, 0, 1, 1}; !reflect.DeepEqual(d.NodeShard, want) {
		t.Fatalf("NodeShard = %v, want %v", d.NodeShard, want)
	}
	if want := []int{0, 1, -1, -1, -1}; !reflect.DeepEqual(d.ObjShard, want) {
		t.Fatalf("ObjShard = %v, want %v", d.ObjShard, want)
	}
	// t0 sits above the tier, t1 and t3 use cross o2, t2 uses cross o4;
	// only t4 (node 6, object o1) is shard-local.
	if want := []int{2, 2, 2, 2, 1}; !reflect.DeepEqual(d.TxnShard, want) {
		t.Fatalf("TxnShard = %v, want %v", d.TxnShard, want)
	}
	if len(d.Local[0]) != 0 || !reflect.DeepEqual(d.Local[1], []tm.TxnID{4}) {
		t.Fatalf("Local = %v", d.Local)
	}
	if want := []tm.TxnID{0, 1, 2, 3}; !reflect.DeepEqual(d.Cross, want) {
		t.Fatalf("Cross = %v, want %v", d.Cross, want)
	}
	if d.CrossObjects != 3 {
		t.Fatalf("CrossObjects = %d, want 3", d.CrossObjects)
	}
	if d.LocalTxns() != 1 || d.MaxShardTxns() != 1 {
		t.Fatalf("LocalTxns=%d MaxShardTxns=%d", d.LocalTxns(), d.MaxShardTxns())
	}
}

// scheduleChecked runs s.Schedule after asserting that every conflict
// graph it builds reads a source that keeps depgraph.New's contract: each
// nonempty shard's members over that shard's view, and a nonempty cross
// set over the cross shard's view. (A nil member list would mean every
// transaction, and ScheduleUnchecked builds no graph for an empty one.)
func scheduleChecked(t *testing.T, s *Scheduler, in *tm.Instance) (*core.Result, error) {
	t.Helper()
	tier := s.Tier
	if tier == 0 {
		tier = 1
	}
	d := Decompose(s.Topo, in, tier)
	pv := in.Index().Partition(d.Shards+1, d.TxnShard)
	for si, ids := range append(d.Local, d.Cross) {
		if len(ids) == 0 {
			continue
		}
		if err := depgraph.New(in, ids, pv.View(si)).CheckSource(); err != nil {
			t.Fatalf("shard %d of %d (the last is the cross set): %v", si, d.Shards+1, err)
		}
	}
	return s.Schedule(in)
}

// genInstance generates a seeded uniform workload over every node of the
// tree — dense enough that shards, cross conflicts, and the merge phase all
// exercise.
func genInstance(t *testing.T, fc *topology.FogCloud, w, k int, seed int64) *tm.Instance {
	t.Helper()
	r := xrand.NewDerived(seed, "hier-test", fc.Graph().Name())
	nodes := make([]graph.NodeID, fc.Graph().NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	return tm.UniformK(w, k).Generate(r, fc.Graph(), fc, nodes, tm.PlaceAtRandomUser)
}

func TestHierFeasibleAndCrossChecked(t *testing.T) {
	for _, tc := range []struct {
		fanout []int
		weight []int64
		w, k   int
	}{
		{[]int{4, 8}, []int64{8, 1}, 48, 3},
		{[]int{2, 4, 4}, []int64{16, 4, 1}, 40, 2},
		{[]int{8}, []int64{5}, 12, 2},
	} {
		fc := topology.NewFogCloud(tc.fanout, tc.weight)
		in := genInstance(t, fc, tc.w, tc.k, 7)
		s := &Scheduler{Topo: fc}
		r, err := scheduleChecked(t, s, in)
		if err != nil {
			t.Fatalf("%s: %v", fc.Graph().Name(), err)
		}
		if err := r.Schedule.Validate(in); err != nil {
			t.Fatalf("%s: invalid schedule: %v", fc.Graph().Name(), err)
		}
		if r.Makespan != r.Schedule.Makespan() || r.Makespan < 1 {
			t.Fatalf("%s: makespan %d", fc.Graph().Name(), r.Makespan)
		}
		if r.Stats["hier_shards"] < 2 {
			t.Fatalf("%s: only %d shards", fc.Graph().Name(), r.Stats["hier_shards"])
		}
		if got := r.Stats["hier_local_txns"] + r.Stats["hier_cross_txns"]; got != int64(in.NumTxns()) {
			t.Fatalf("%s: local+cross = %d, want %d", fc.Graph().Name(), got, in.NumTxns())
		}
	}
}

// stripWallStats drops the wall-clock keys (the only nondeterministic
// stats, moved into engine Timing in pipeline runs).
func stripWallStats(stats map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range stats {
		if k == "hier_shard_wall_ns" || k == "hier_merge_wall_ns" || k == "depgraph_build_ns" {
			continue
		}
		out[k] = v
	}
	return out
}

// TestHierDeterministicAcrossWorkers pins the acceptance contract: the
// schedule and every deterministic stat are byte-identical at shard-worker
// counts 1, 4, and 8.
func TestHierDeterministicAcrossWorkers(t *testing.T) {
	fc := topology.NewFogCloud([]int{4, 4, 2}, []int64{12, 3, 1})
	in := genInstance(t, fc, 64, 3, 11)
	var base *core.Result
	for _, workers := range []int{1, 4, 8} {
		s := &Scheduler{Topo: fc, Workers: workers}
		r, err := scheduleChecked(t, s, in)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = r
			continue
		}
		if !reflect.DeepEqual(base.Schedule.Times, r.Schedule.Times) {
			t.Fatalf("workers=%d: schedule differs from workers=1", workers)
		}
		if !reflect.DeepEqual(stripWallStats(base.Stats), stripWallStats(r.Stats)) {
			t.Fatalf("workers=%d: stats differ: %v vs %v",
				workers, stripWallStats(base.Stats), stripWallStats(r.Stats))
		}
	}
}

// TestHierTierSweep checks every legal shard tier of a 4-tier tree
// produces a feasible schedule, and deeper tiers never decrease the cross
// fraction (finer shards can only break more conflicts across).
func TestHierTierSweep(t *testing.T) {
	fc := topology.NewFogCloud([]int{2, 2, 3}, []int64{9, 3, 1})
	in := genInstance(t, fc, 36, 2, 3)
	prevCross := int64(-1)
	for tier := 1; tier < fc.Tiers(); tier++ {
		s := &Scheduler{Topo: fc, Tier: tier, Workers: 2}
		r, err := scheduleChecked(t, s, in)
		if err != nil {
			t.Fatalf("tier %d: %v", tier, err)
		}
		if got := r.Stats["hier_tier"]; got != int64(tier) {
			t.Fatalf("tier %d: stat says %d", tier, got)
		}
		if cross := r.Stats["hier_cross_txns"]; cross < prevCross {
			t.Fatalf("tier %d: cross txns %d fell below tier %d's %d", tier, cross, tier-1, prevCross)
		} else {
			prevCross = cross
		}
	}
}

// TestHierLocalOverlap pins the whole point of sharding: a fully
// subtree-local workload has no cross transactions and its makespan is the
// max over shard spans — shards overlap in time instead of serializing.
func TestHierLocalOverlap(t *testing.T) {
	fc := topology.NewFogCloud([]int{4, 8}, []int64{10, 1})
	r := xrand.NewDerived(5, "hier-local")
	nodes := make([]graph.NodeID, fc.Graph().NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	wl := tm.PartitionedK(16, 2, 4, func(node graph.NodeID) int {
		if fc.TierOf(node) < 1 {
			return 0
		}
		return int(fc.Ancestor(node, 1)) - int(fc.TierStart(1))
	})
	in := wl.Generate(r, fc.Graph(), fc, nodes[1:], tm.PlaceAtFirstUser)
	s := &Scheduler{Topo: fc}
	res, err := scheduleChecked(t, s, in)
	if err != nil {
		t.Fatal(err)
	}
	// The fog-tier transactions are shard-local too: each fog node roots
	// its own subtree, so nothing should classify cross.
	if cross := res.Stats["hier_cross_txns"]; cross != 0 {
		t.Fatalf("partitioned workload produced %d cross transactions", cross)
	}
	if res.Makespan != res.Stats["hier_local_span"] {
		t.Fatalf("makespan %d != local span %d: shards failed to overlap",
			res.Makespan, res.Stats["hier_local_span"])
	}
}

func TestHierConfigErrors(t *testing.T) {
	fc := topology.NewFogCloud([]int{2, 2}, []int64{2, 1})
	in := genInstance(t, fc, 8, 2, 1)
	if _, err := (&Scheduler{}).Schedule(in); err == nil {
		t.Fatal("nil topology accepted")
	}
	for _, tier := range []int{-1, 3} {
		if _, err := (&Scheduler{Topo: fc, Tier: tier}).Schedule(in); err == nil {
			t.Fatalf("tier %d accepted", tier)
		}
	}
	other := topology.NewFogCloud([]int{3, 3}, []int64{2, 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for mismatched topology")
			}
		}()
		Decompose(other, in, 1)
	}()
}

// TestCrossCheckRejectsTampering feeds the verifiers a corrupted schedule
// and CrossCheck a corrupted decomposition to make sure both actually bite.
func TestCrossCheckRejectsTampering(t *testing.T) {
	fc := topology.NewFogCloud([]int{4, 8}, []int64{8, 1})
	in := genInstance(t, fc, 48, 3, 7)
	s := &Scheduler{Topo: fc}
	r, err := scheduleChecked(t, s, in)
	if err != nil {
		t.Fatal(err)
	}
	d := Decompose(fc, in, 1)

	// Collapse two users of a shared object onto one step.
	bad := r.Schedule.Clone()
	var tampered bool
	for o := 0; o < in.NumObjects && !tampered; o++ {
		users := in.Users(tm.ObjectID(o))
		if len(users) >= 2 {
			bad.Times[users[1]] = bad.Times[users[0]]
			tampered = true
		}
	}
	if !tampered {
		t.Skip("no shared object in fixture")
	}
	if err := bad.Validate(in); err == nil {
		t.Fatal("Validate accepted a same-step shared-object schedule")
	}

	// Corrupt the decomposition: claim a cross object is shard-local.
	for o := 0; o < in.NumObjects; o++ {
		if d.ObjShard[o] < 0 && len(in.Users(tm.ObjectID(o))) > 0 {
			d.ObjShard[o] = 0
			break
		}
	}
	if err := CrossCheck(d, in); err == nil {
		t.Fatal("containment check accepted a cross object marked local")
	}
}

var _ core.Scheduler = (*Scheduler)(nil)
