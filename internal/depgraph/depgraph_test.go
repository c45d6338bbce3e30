package depgraph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
)

// pathInstance: 5 nodes in a line; txn i at node i.
// objects: 0 shared by txns {0,1,2}; 1 shared by {2,4}.
func pathInstance() *tm.Instance {
	g := graph.New(5)
	for i := 0; i < 4; i++ {
		g.AddUnitEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return tm.NewInstance(g, nil, 2, []tm.Txn{
		{Node: 0, Objects: []tm.ObjectID{0}},
		{Node: 1, Objects: []tm.ObjectID{0}},
		{Node: 2, Objects: []tm.ObjectID{0, 1}},
		{Node: 3, Objects: nil},
		{Node: 4, Objects: []tm.ObjectID{1}},
	}, []graph.NodeID{0, 4})
}

func TestBuildStructure(t *testing.T) {
	in := pathInstance()
	h := New(in, nil, in.Index())
	if h.Len() != 5 {
		t.Fatalf("Len = %d", h.Len())
	}
	s := h.Summarize()
	// Conflicts: {0,1},{0,2},{1,2} via obj0; {2,4} via obj1.
	if s.Degree[2] != 3 {
		t.Fatalf("Degree(txn2) = %d, want 3", s.Degree[2])
	}
	if s.Degree[3] != 0 {
		t.Fatalf("Degree(txn3) = %d, want 0", s.Degree[3])
	}
	if s.Edges != 4 {
		t.Fatalf("Edges = %d, want 4", s.Edges)
	}
	ref := BuildReference(in, nil)
	if w := ref.adj[0][2]; w != 2 {
		t.Fatalf("reference weight(0,2) = %d, want 2 (distance on the line)", w)
	}
	if _, ok := ref.adj[0][4]; ok {
		t.Fatal("reference has edge {0,4}, which share no object")
	}
	if s.HMax != 2 {
		t.Fatalf("HMax = %d, want 2", s.HMax)
	}
	if s.MaxDegree != 3 {
		t.Fatalf("MaxDegree = %d", s.MaxDegree)
	}
	if s.WeightedDegree() != 6 {
		t.Fatalf("WeightedDegree = %d, want 6", s.WeightedDegree())
	}
}

func TestBuildSubset(t *testing.T) {
	in := pathInstance()
	h := New(in, []tm.TxnID{0, 1, 4}, in.Index())
	if h.Len() != 3 {
		t.Fatalf("subset Len = %d", h.Len())
	}
	// Only the {0,1} conflict survives (txn2 excluded).
	s := h.Summarize()
	if s.MaxDegree != 1 {
		t.Fatalf("subset MaxDegree = %d, want 1", s.MaxDegree)
	}
	if s.HMax != 1 {
		t.Fatalf("subset HMax = %d, want 1", s.HMax)
	}
}

func TestGreedyColorValidAndBounded(t *testing.T) {
	in := pathInstance()
	times, s := Color(in, nil, in.Index())
	if err := BuildReference(in, nil).CheckColoring(times); err != nil {
		t.Fatalf("greedy coloring invalid: %v", err)
	}
	limit := s.WeightedDegree() + 1
	for i, tt := range times {
		if tt > limit {
			t.Fatalf("color %d of member %d exceeds Γ+1 = %d", tt, i, limit)
		}
	}
}

func TestGreedyColorConflictFree(t *testing.T) {
	g := graph.New(3)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	in := tm.NewInstance(g, nil, 3, []tm.Txn{
		{Node: 0, Objects: []tm.ObjectID{0}},
		{Node: 1, Objects: []tm.ObjectID{1}},
		{Node: 2, Objects: []tm.ObjectID{2}},
	}, []graph.NodeID{0, 1, 2})
	times, _ := Color(in, nil, in.Index())
	for _, tt := range times {
		if tt != 1 {
			t.Fatalf("conflict-free instance should run entirely at step 1, got %v", times)
		}
	}
}

func TestCheckColoringRejects(t *testing.T) {
	in := pathInstance()
	h := BuildReference(in, nil)
	bad := []int64{1, 1, 2, 1, 5} // txns 0 and 1 conflict at distance 1, same color
	if err := h.CheckColoring(bad); err == nil {
		t.Fatal("CheckColoring accepted a clash")
	}
	if err := h.CheckColoring([]int64{1, 2}); err == nil {
		t.Fatal("CheckColoring accepted wrong length")
	}
	if err := h.CheckColoring([]int64{0, 2, 5, 1, 9}); err == nil {
		t.Fatal("CheckColoring accepted non-positive time")
	}
}

func TestGreedyColorPanicsOnBadOrder(t *testing.T) {
	in := pathInstance()
	h := New(in, nil, in.Index())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short order")
		}
	}()
	h.Ranks([]int{0, 1})
}

func TestOrderByNode(t *testing.T) {
	in := pathInstance()
	h := New(in, []tm.TxnID{4, 0, 2}, in.Index())
	order := h.OrderByNode()
	// Members are [4 0 2]; node order 0,2,4 → local indices [1 2 0].
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("OrderByNode = %v, want %v", order, want)
		}
	}
}

func randomInstance(r *rand.Rand) *tm.Instance {
	return randomSized(r, 3+r.Intn(24))
}

// randomSized: n transactions on a random weighted tree of n nodes,
// UniformK over 2–9 objects.
func randomSized(r *rand.Rand, n int) *tm.Instance {
	w := 2 + r.Intn(8)
	k := 1 + r.Intn(minInt(w, 4))
	g := graph.New(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[r.Intn(i)]), 1+r.Int63n(4))
	}
	return tm.UniformK(w, k).Generate(r, g, nil, g.Nodes(), tm.PlaceAtRandomUser)
}

// TestGreedyColoringValidProperty: on random instances and random coloring
// orders, the greedy coloring is always valid and within Γ+1.
func TestGreedyColoringValidProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r)
		h := New(in, nil, in.Index())
		s := h.Summarize()
		times := s.Times(h.Ranks(r.Perm(h.Len())))
		if BuildReference(in, nil).CheckColoring(times) != nil {
			return false
		}
		limit := max(s.WeightedDegree()+1, 1)
		for _, tt := range times {
			if tt > limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestWeightsSymmetricProperty: H is undirected. The reference stores
// each weight in both directions, and the summary's degrees count every
// distinct edge from both ends.
func TestWeightsSymmetricProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r)
		ref := BuildReference(in, nil)
		for i, row := range ref.adj {
			for j, w := range row {
				if ref.adj[j][i] != w {
					return false
				}
			}
		}
		s := New(in, nil, in.Index()).Summarize()
		var sum int64
		for _, d := range s.Degree {
			sum += int64(d)
		}
		return sum == 2*s.Edges
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// matchReference checks both passes over h against ref, which must hold
// the same members: per-member degree, Δ, h_max and edge count, then the
// ranks in order (a permutation) against the reference coloring (times
// equal, the coloring valid), and that ordering by rank is ordering by
// time.
func matchReference(t *testing.T, label string, h *DepGraph, ref *Reference, order []int) {
	t.Helper()
	s := h.Summarize()
	mdeg, ends := 0, 0
	for i, row := range ref.adj {
		if int(s.Degree[i]) != len(row) {
			t.Fatalf("%s: member %d has degree %d, want %d", label, i, s.Degree[i], len(row))
		}
		mdeg, ends = max(mdeg, len(row)), ends+len(row)
	}
	if s.MaxDegree != mdeg || s.HMax != ref.hmax || s.Edges != int64(ends/2) {
		t.Fatalf("%s: Δ/h_max/edges = %d/%d/%d, want %d/%d/%d",
			label, s.MaxDegree, s.HMax, s.Edges, mdeg, ref.hmax, ends/2)
	}

	ranks := h.Ranks(order)
	times := s.Times(slices.Clone(ranks))
	if want := ref.GreedyColor(order); !slices.Equal(times, want) {
		t.Fatalf("%s: times %v, want %v", label, times, want)
	}
	if err := ref.CheckColoring(times); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !slices.Equal(h.OrderByColor(ranks), h.OrderByColor(times)) {
		t.Fatalf("%s: ordering by rank differs from ordering by time", label)
	}
}

// TestBuildMatchesReference: both passes agree with the map-of-maps
// reference on random instances, for full and subset member sets, in node
// order and in a random order.
func TestBuildMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r)
		var ids []tm.TxnID
		if seed%3 == 1 { // every third case: a strict subset
			for i := 0; i < in.NumTxns(); i += 2 {
				ids = append(ids, tm.TxnID(i))
			}
		}
		h := New(in, ids, in.Index())
		order := h.OrderByNode()
		if seed%2 == 1 {
			order = r.Perm(h.Len())
		}
		matchReference(t, "seed", h, BuildReference(in, ids), order)
	}
}

// TestBuildExternalIndex: reading conflicts from a caller-supplied
// ConflictIndex gives what the instance's own cached index gives.
func TestBuildExternalIndex(t *testing.T) {
	in := pathInstance()
	ext := New(in, nil, tm.IndexTxns(in.NumObjects, in.Txns))
	own := New(in, nil, in.Index())
	if !reflect.DeepEqual(ext.Summarize(), own.Summarize()) {
		t.Fatal("summary differs between the external and the instance index")
	}
	if !slices.Equal(ext.Ranks(nil), own.Ranks(nil)) {
		t.Fatal("ranks differ between the external and the instance index")
	}
}

// FuzzBuildMatchesReference: both passes equal the map-of-maps reference
// (matchReference) over a shuffled subset of the members (local order ≠
// ID order), over every shard of a partitioned index including the cross
// shard, and over an external index built from the transactions with
// random members stripped of their objects, whose degrees must come out
// zero. The top two bits of shape pick the instance: up to 26
// transactions, 64–263, or 8192–9191 with sparse neighbourhoods; the low
// bit picks node order or a random coloring order.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		var in *tm.Instance
		switch shape >> 6 {
		case 2:
			in = randomSized(r, 64+r.Intn(200))
		case 3: // a line with a closed-form metric keeps this size cheap
			n := 8192 + r.Intn(1000)
			g := graph.New(n)
			for i := 1; i < n; i++ {
				g.AddUnitEdge(graph.NodeID(i-1), graph.NodeID(i))
			}
			line := graph.FuncMetric(func(u, v graph.NodeID) int64 { return int64(max(u-v, v-u)) })
			in = tm.UniformK(n/4, 2).Generate(r, g, line, g.Nodes(), tm.PlaceAtRandomUser)
		default:
			in = randomInstance(r)
		}
		m := in.NumTxns()
		shuffled := func(keep func(i int) bool) []tm.TxnID {
			ids := []tm.TxnID{}
			for _, i := range r.Perm(m) {
				if keep(i) {
					ids = append(ids, tm.TxnID(i))
				}
			}
			return ids
		}
		check := func(label string, h *DepGraph, ref *Reference) {
			t.Helper()
			order := h.OrderByNode()
			if shape&1 != 0 {
				order = r.Perm(h.Len())
			}
			matchReference(t, label, h, ref, order)
		}

		ids := shuffled(func(int) bool { return r.Intn(4) != 0 })
		check("subset", New(in, ids, in.Index()), BuildReference(in, ids))

		// The last shard plays the hierarchical scheduler's cross shard.
		shards := 2 + int(shape>>2)%4
		shardOf := make([]int, m)
		for i := range shardOf {
			shardOf[i] = r.Intn(shards)
		}
		pv := in.Index().Partition(shards, shardOf)
		for s := 0; s < shards; s++ {
			sids := shuffled(func(i int) bool { return shardOf[i] == s })
			check("shard", New(in, sids, pv.View(s)), BuildReference(in, sids))
		}

		// The reference sees a stripped member as requesting nothing.
		txns := slices.Clone(in.Txns)
		for i := range txns {
			if r.Intn(3) == 0 {
				txns[i].Objects = nil
			}
		}
		stripped := tm.NewInstance(in.G, in.Metric, in.NumObjects, txns, in.Home)
		h := New(in, ids, tm.IndexTxns(in.NumObjects, txns))
		check("stripped", h, BuildReference(stripped, ids))
		deg := h.Summarize().Degree
		for i, id := range ids {
			if txns[id].Objects == nil && deg[i] != 0 {
				t.Fatalf("stripped member %d has degree %d", id, deg[i])
			}
		}
	})
}

// TestCheckColoringEdgeCases: empty graphs, single members, and weight-0
// conflict pairs all round-trip through the passes and CheckColoring.
func TestCheckColoringEdgeCases(t *testing.T) {
	in := pathInstance()

	t.Run("empty", func(t *testing.T) {
		none := []tm.TxnID{}
		h := New(in, none, in.Index())
		s := h.Summarize()
		if h.Len() != 0 || s.HMax != 0 || s.MaxDegree != 0 || s.Edges != 0 {
			t.Fatalf("empty graph: Len=%d HMax=%d Δ=%d edges=%d", h.Len(), s.HMax, s.MaxDegree, s.Edges)
		}
		ref := BuildReference(in, none)
		if err := ref.CheckColoring(s.Times(h.Ranks(nil))); err != nil {
			t.Fatalf("empty coloring rejected: %v", err)
		}
		if err := ref.CheckColoring([]int64{1}); err == nil {
			t.Fatal("CheckColoring accepted 1 time for 0 members")
		}
	})

	t.Run("single member", func(t *testing.T) {
		times, _ := Color(in, []tm.TxnID{2}, in.Index())
		if len(times) != 1 || times[0] != 1 {
			t.Fatalf("single member times = %v, want [1]", times)
		}
		ref := BuildReference(in, []tm.TxnID{2})
		if err := ref.CheckColoring(times); err != nil {
			t.Fatalf("single-member coloring rejected: %v", err)
		}
		if err := ref.CheckColoring([]int64{0}); err == nil {
			t.Fatal("CheckColoring accepted time 0")
		}
	})

	t.Run("weight-0 conflict pair", func(t *testing.T) {
		// A metric that reports distance 0 between distinct nodes makes a
		// conflict edge of weight 0: the pair still counts toward degrees,
		// but any positive times (even equal ones) satisfy |ti−tj| ≥ 0.
		g := graph.New(2)
		g.AddUnitEdge(0, 1)
		zero := graph.FuncMetric(func(u, v graph.NodeID) int64 { return 0 })
		in0 := tm.NewInstance(g, zero, 1, []tm.Txn{
			{Node: 0, Objects: []tm.ObjectID{0}},
			{Node: 1, Objects: []tm.ObjectID{0}},
		}, []graph.NodeID{0})
		times, s := Color(in0, nil, in0.Index())
		if s.Edges != 1 || s.HMax != 0 || s.Degree[0] != 1 {
			t.Fatalf("weight-0 pair: edges=%d hmax=%d deg0=%d", s.Edges, s.HMax, s.Degree[0])
		}
		ref := BuildReference(in0, nil)
		if err := ref.CheckColoring(times); err != nil {
			t.Fatalf("weight-0 coloring rejected: %v", err)
		}
		if err := ref.CheckColoring([]int64{3, 3}); err != nil {
			t.Fatalf("equal times rejected across a weight-0 edge: %v", err)
		}
	})
}

// TestGreedyColorPartialOrderPanics: every malformed caller-supplied order
// (short, long, out-of-range entry, duplicate entry) panics instead of
// silently producing a partial coloring.
func TestGreedyColorPartialOrderPanics(t *testing.T) {
	in := pathInstance()
	h := New(in, nil, in.Index())
	for name, order := range map[string][]int{
		"short":        {0, 1},
		"long":         {0, 1, 2, 3, 4, 0},
		"out of range": {0, 1, 2, 3, 5},
		"negative":     {0, 1, 2, 3, -1},
		"duplicate":    {0, 1, 2, 3, 3},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Ranks accepted %s order %v", name, order)
				}
			}()
			h.Ranks(order)
		})
	}
}

// TestPassAllocs: each pass allocates only its two member-sized slices,
// whatever the neighbourhood sizes: Ranks its ranks and its used stamps,
// Summarize its degrees and its seen stamps.
func TestPassAllocs(t *testing.T) {
	for _, in := range []*tm.Instance{pathInstance(), randomSized(rand.New(rand.NewSource(3)), 200)} {
		h := New(in, nil, in.Index())
		order := h.OrderByNode()
		if allocs := testing.AllocsPerRun(50, func() { h.Ranks(order) }); allocs != 2 {
			t.Errorf("%d members: Ranks allocated %.1f times per call, want 2", h.Len(), allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() { h.Summarize() }); allocs != 2 {
			t.Errorf("%d members: Summarize allocated %.1f times per call, want 2", h.Len(), allocs)
		}
	}
}
