package depgraph

import (
	"math/rand"
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
	h := Build(in, nil)
	if h.Len() != 5 {
		t.Fatalf("Len = %d", h.Len())
	}
	// Conflicts: {0,1},{0,2},{1,2} via obj0; {2,4} via obj1.
	if h.Degree(2) != 3 {
		t.Fatalf("Degree(txn2) = %d, want 3", h.Degree(2))
	}
	if h.Degree(3) != 0 {
		t.Fatalf("Degree(txn3) = %d, want 0", h.Degree(3))
	}
	if w := h.Weight(0, 2); w != 2 {
		t.Fatalf("Weight(0,2) = %d, want 2 (distance on the line)", w)
	}
	if w := h.Weight(0, 4); w != 0 {
		t.Fatalf("Weight(0,4) = %d, want 0 (no conflict)", w)
	}
	if h.HMax() != 2 {
		t.Fatalf("HMax = %d, want 2", h.HMax())
	}
	if h.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d", h.MaxDegree())
	}
	if h.WeightedDegree() != 6 {
		t.Fatalf("WeightedDegree = %d, want 6", h.WeightedDegree())
	}
}

func TestBuildSubset(t *testing.T) {
	in := pathInstance()
	h := Build(in, []tm.TxnID{0, 1, 4})
	if h.Len() != 3 {
		t.Fatalf("subset Len = %d", h.Len())
	}
	// Only the {0,1} conflict survives (txn2 excluded).
	if h.MaxDegree() != 1 {
		t.Fatalf("subset MaxDegree = %d, want 1", h.MaxDegree())
	}
	if h.HMax() != 1 {
		t.Fatalf("subset HMax = %d, want 1", h.HMax())
	}
}

func TestGreedyColorValidAndBounded(t *testing.T) {
	in := pathInstance()
	h := Build(in, nil)
	times := h.GreedyColor(nil)
	if err := h.CheckColoring(times); err != nil {
		t.Fatalf("greedy coloring invalid: %v", err)
	}
	limit := h.WeightedDegree() + 1
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
	h := Build(in, nil)
	times := h.GreedyColor(nil)
	for _, tt := range times {
		if tt != 1 {
			t.Fatalf("conflict-free instance should run entirely at step 1, got %v", times)
		}
	}
}

func TestCheckColoringRejects(t *testing.T) {
	in := pathInstance()
	h := Build(in, nil)
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
	h := Build(in, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short order")
		}
	}()
	h.GreedyColor([]int{0, 1})
}

func TestOrderByNode(t *testing.T) {
	in := pathInstance()
	h := Build(in, []tm.TxnID{4, 0, 2})
	order := h.OrderByNode(in)
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
		h := Build(in, nil)
		order := r.Perm(h.Len())
		times := h.GreedyColor(order)
		if h.CheckColoring(times) != nil {
			return false
		}
		limit := h.WeightedDegree() + 1
		if limit < 1 {
			limit = 1
		}
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

// TestWeightsSymmetricProperty: edge weights stored in both directions.
func TestWeightsSymmetricProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r)
		h := Build(in, nil)
		for i := 0; i < h.Len(); i++ {
			for j := 0; j < h.Len(); j++ {
				if h.Weight(i, j) != h.Weight(j, i) {
					return false
				}
			}
		}
		return true
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

// csrEqual compares two graphs' flat CSR layouts byte for byte (offsets,
// neighbor rows, weights) plus the derived aggregates.
func csrEqual(t *testing.T, label string, a, b *DepGraph) {
	t.Helper()
	if !slices.Equal(a.rowStart, b.rowStart) {
		t.Fatalf("%s: rowStart differs", label)
	}
	if !slices.Equal(a.nbr, b.nbr) {
		t.Fatalf("%s: neighbor rows differ", label)
	}
	if !slices.Equal(a.wt, b.wt) {
		t.Fatalf("%s: edge weights differ", label)
	}
	if a.hmax != b.hmax || a.mdeg != b.mdeg {
		t.Fatalf("%s: hmax/mdeg = %d/%d vs %d/%d", label, a.hmax, a.mdeg, b.hmax, b.mdeg)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: edges = %d vs %d", label, a.NumEdges(), b.NumEdges())
	}
}

// TestBuildMatchesReference: the parallel CSR build and the pre-CSR
// map-of-maps reference construct identical graphs on random instances,
// for full and subset member sets.
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
		want := BuildReference(in, ids)
		got := BuildOpts(in, ids, Options{Workers: 1 + int(seed%4)})
		csrEqual(t, "seed", got, want)
	}
}

// TestBuildDeterministicAcrossWorkers: the same instance yields identical
// CSR bytes, Γ, h_max, and greedy coloring at every worker count. Run
// under -race this also exercises the parallel build for data races.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// Large enough that the auto policy would genuinely parallelize.
	n, w, k := 700, 150, 3
	g := graph.New(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[r.Intn(i)]), 1+r.Int63n(4))
	}
	in := tm.UniformK(w, k).Generate(r, g, nil, g.Nodes(), tm.PlaceAtRandomUser)

	base := BuildOpts(in, nil, Options{Workers: 1})
	baseTimes := base.GreedyColor(base.OrderByNode(in))
	if base.WeightedDegree() == 0 {
		t.Fatal("degenerate instance: no conflicts")
	}
	for _, workers := range []int{2, 3, 4, 8} {
		h := BuildOpts(in, nil, Options{Workers: workers})
		csrEqual(t, "workers", h, base)
		if h.WeightedDegree() != base.WeightedDegree() {
			t.Fatalf("workers=%d: Γ = %d, want %d", workers, h.WeightedDegree(), base.WeightedDegree())
		}
		if !slices.Equal(h.GreedyColor(h.OrderByNode(in)), baseTimes) {
			t.Fatalf("workers=%d: greedy coloring differs", workers)
		}
	}
}

// TestBuildExternalIndex: building against a caller-supplied
// ConflictIndex matches building from the instance's own cached index.
func TestBuildExternalIndex(t *testing.T) {
	in := pathInstance()
	index := tm.IndexTxns(in.NumObjects, in.Txns)
	csrEqual(t, "external index", BuildOpts(in, nil, Options{Index: index}), Build(in, nil))
}

// FuzzBuildMatchesReference: the row build equals the map-of-maps
// reference at 1–4 workers over a shuffled subset of the members (local
// order ≠ ID order), over every shard of a partitioned index including the
// cross shard, and over an external index built from the transactions
// with random members stripped of their objects, whose rows must come out
// empty. The top two bits of shape pick the
// instance: up to 26 transactions, 64–263 (rows span several bitset
// words), or 8192–9191 with sparse rows (several summary words).
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
		workers := 1 + int(shape%4)
		shuffled := func(keep func(i int) bool) []tm.TxnID {
			ids := []tm.TxnID{}
			for _, i := range r.Perm(m) {
				if keep(i) {
					ids = append(ids, tm.TxnID(i))
				}
			}
			return ids
		}

		ids := shuffled(func(int) bool { return r.Intn(4) != 0 })
		csrEqual(t, "subset", BuildOpts(in, ids, Options{Workers: workers}), BuildReference(in, ids))

		// The last shard plays the hierarchical scheduler's cross shard.
		shards := 2 + int(shape>>2)%4
		shardOf := make([]int, m)
		for i := range shardOf {
			shardOf[i] = r.Intn(shards)
		}
		pv := in.Index().Partition(shards, shardOf)
		for s := 0; s < shards; s++ {
			sids := shuffled(func(i int) bool { return shardOf[i] == s })
			got := BuildOpts(in, sids, Options{Workers: workers, Index: pv.View(s)})
			csrEqual(t, "shard", got, BuildReference(in, sids))
		}

		// The reference sees a stripped member as requesting nothing.
		txns := slices.Clone(in.Txns)
		for i := range txns {
			if r.Intn(3) == 0 {
				txns[i].Objects = nil
			}
		}
		index := tm.IndexTxns(in.NumObjects, txns)
		stripped := tm.NewInstance(in.G, in.Metric, in.NumObjects, txns, in.Home)
		got := BuildOpts(in, ids, Options{Workers: workers, Index: index})
		csrEqual(t, "stripped", got, BuildReference(stripped, ids))
		for i, id := range ids {
			if txns[id].Objects == nil && got.Degree(i) != 0 {
				t.Fatalf("stripped member %d has degree %d", id, got.Degree(i))
			}
		}
	})
}

// TestCheckColoringEdgeCases: empty graphs, single members, and weight-0
// conflict pairs all round-trip through GreedyColor / CheckColoring.
func TestCheckColoringEdgeCases(t *testing.T) {
	in := pathInstance()

	t.Run("empty", func(t *testing.T) {
		h := Build(in, []tm.TxnID{})
		if h.Len() != 0 || h.HMax() != 0 || h.MaxDegree() != 0 || h.NumEdges() != 0 {
			t.Fatalf("empty graph: Len=%d HMax=%d Δ=%d edges=%d", h.Len(), h.HMax(), h.MaxDegree(), h.NumEdges())
		}
		if err := h.CheckColoring(h.GreedyColor(nil)); err != nil {
			t.Fatalf("empty coloring rejected: %v", err)
		}
		if err := h.CheckColoring([]int64{1}); err == nil {
			t.Fatal("CheckColoring accepted 1 time for 0 members")
		}
	})

	t.Run("single member", func(t *testing.T) {
		h := Build(in, []tm.TxnID{2})
		times := h.GreedyColor(nil)
		if len(times) != 1 || times[0] != 1 {
			t.Fatalf("single member times = %v, want [1]", times)
		}
		if err := h.CheckColoring(times); err != nil {
			t.Fatalf("single-member coloring rejected: %v", err)
		}
		if err := h.CheckColoring([]int64{0}); err == nil {
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
		h := Build(in0, nil)
		if h.NumEdges() != 1 || h.HMax() != 0 || h.Degree(0) != 1 {
			t.Fatalf("weight-0 pair: edges=%d hmax=%d deg0=%d", h.NumEdges(), h.HMax(), h.Degree(0))
		}
		times := h.GreedyColor(nil)
		if err := h.CheckColoring(times); err != nil {
			t.Fatalf("weight-0 coloring rejected: %v", err)
		}
		if err := h.CheckColoring([]int64{3, 3}); err != nil {
			t.Fatalf("equal times rejected across a weight-0 edge: %v", err)
		}
	})
}

// TestGreedyColorPartialOrderPanics: every malformed caller-supplied order
// (short, long, out-of-range entry, duplicate entry) panics instead of
// silently producing a partial coloring.
func TestGreedyColorPartialOrderPanics(t *testing.T) {
	in := pathInstance()
	h := Build(in, nil)
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
					t.Fatalf("GreedyColor accepted %s order %v", name, order)
				}
			}()
			h.GreedyColor(order)
		})
	}
}

// TestWarmCSRQueriesZeroAlloc: warm queries against a built graph are pure
// slice walks — the CI gate pins 0 allocs/op for Weight, Degree, Neighbors
// iteration, and CheckColoring.
func TestWarmCSRQueriesZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	in := randomInstance(r)
	h := Build(in, nil)
	times := h.GreedyColor(nil)
	var sink int64
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < h.Len(); i++ {
			for j := 0; j < h.Len(); j++ {
				sink += h.Weight(i, j)
			}
			sink += int64(h.Degree(i))
			row, wts := h.Neighbors(i)
			for e := range row {
				sink += int64(row[e]) + wts[e]
			}
		}
		if err := h.CheckColoring(times); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm CSR queries allocated %.1f allocs/op, want 0", allocs)
	}
	_ = sink
}
