package depgraph

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dtmsched/internal/graph"
	"dtmsched/internal/keysort"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
)

// refOrderByNode and refOrderByColor are the comparison sorts the counting
// orders must reproduce exactly, ties included.
func refOrderByNode(h *DepGraph) []int {
	order := make([]int, len(h.IDs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Compare(h.in.Txns[h.IDs[a]].Node, h.in.Txns[h.IDs[b]].Node)
	})
	return order
}

func refOrderByColor(h *DepGraph, color []int64) []int {
	order := make([]int, len(h.IDs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(color[a], color[b]), cmp.Compare(h.IDs[a], h.IDs[b]))
	})
	return order
}

// orderCase is a member list: member i is transaction ids[i], hosted on
// nodes[i] and colored colors[i].
type orderCase struct {
	ids    []tm.TxnID
	nodes  []graph.NodeID
	colors []int64
}

// checkOrders compares both orders with their references.
func checkOrders(t *testing.T, name string, c orderCase) {
	t.Helper()
	txns := make([]tm.Txn, len(c.ids))
	for i, id := range c.ids {
		if int(id) >= len(txns) {
			txns = append(txns, make([]tm.Txn, int(id)+1-len(txns))...)
		}
		txns[id].Node = c.nodes[i]
	}
	h := &DepGraph{IDs: c.ids, in: &tm.Instance{Txns: txns}}
	if got, want := h.OrderByNode(), refOrderByNode(h); !slices.Equal(got, want) {
		t.Fatalf("%s: OrderByNode = %v, want %v", name, got, want)
	}
	if got, want := h.OrderByColor(c.colors), refOrderByColor(h, c.colors); !slices.Equal(got, want) {
		t.Fatalf("%s: OrderByColor = %v, want %v", name, got, want)
	}
}

// spread returns n keys in [lo, lo+span) that include both ends, in
// shuffled positions; distinct keys are evenly spaced, the others random.
func spread(r *rand.Rand, n int, lo, span int64, distinct bool) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		if distinct && n > 1 {
			keys[i] = lo + int64(i)*(span-1)/int64(n-1)
		} else {
			keys[i] = lo + r.Int63n(span)
		}
	}
	if n > 1 {
		keys[0], keys[n-1] = lo, lo+span-1
	}
	r.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

func ascendingIDs(n int) []tm.TxnID {
	ids := make([]tm.TxnID, n)
	for i := range ids {
		ids[i] = tm.TxnID(i)
	}
	return ids
}

func asNodes(keys []int64) []graph.NodeID {
	nodes := make([]graph.NodeID, len(keys))
	for i, k := range keys {
		nodes[i] = graph.NodeID(k)
	}
	return nodes
}

// TestCountingOrderMatchesReference: OrderByNode and OrderByColor equal
// their comparison-sort references on empty and single-member lists, on
// duplicate nodes (the fallback) and duplicate colors (ties by ID), on
// non-ascending IDs, and on key spans just under and just over both
// fallback thresholds: 16 slots per member, and keysort.StackSpan.
func TestCountingOrderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	checkOrders(t, "empty", orderCase{})
	checkOrders(t, "single", orderCase{ids: []tm.TxnID{3}, nodes: []graph.NodeID{7}, colors: []int64{5}})
	checkOrders(t, "extreme-colors", orderCase{
		ids:    ascendingIDs(3),
		nodes:  []graph.NodeID{2, 0, 1},
		colors: []int64{math.MaxInt64, math.MinInt64, 0},
	})

	for _, tc := range []struct {
		name string
		n    int
		span int64
	}{
		{"window", 56, 256},
		{"under-16n", 8, 16 * 8},
		{"over-16n", 8, 16*8 + 1},
		{"under-stack", 100, keysort.StackSpan},
		{"over-stack", 100, keysort.StackSpan + 1},
	} {
		for _, distinct := range []bool{true, false} {
			name := tc.name
			if !distinct {
				name += "/duplicates"
			}
			c := orderCase{
				ids:    ascendingIDs(tc.n),
				nodes:  asNodes(spread(r, tc.n, 3, tc.span, distinct)),
				colors: spread(r, tc.n, 1, tc.span, distinct),
			}
			checkOrders(t, name, c)

			// Non-ascending IDs: the same members listed in a shuffled
			// order (Grid and Star build over tile subsets).
			r.Shuffle(tc.n, func(i, j int) { c.ids[i], c.ids[j] = c.ids[j], c.ids[i] })
			checkOrders(t, name+"/shuffled-ids", c)
		}
	}
}

// FuzzCountingOrder: on any member list both counting orders equal their
// references. Byte i places member i: its node is the byte times a
// stride (repeated bytes repeat nodes) and its color mixes the byte's
// nibbles times scale; flags reverse or rotate the ID list.
func FuzzCountingOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, scale uint16, flags uint8) {
		n := min(len(data), 600)
		c := orderCase{ids: ascendingIDs(n), nodes: make([]graph.NodeID, n), colors: make([]int64, n)}
		stride := 1 + int(flags>>2)%8
		for i, b := range data[:n] {
			c.nodes[i] = graph.NodeID(int(b) * stride)
			c.colors[i] = 1 + int64(b>>4|b<<4)*int64(scale)
		}
		if flags&1 != 0 {
			slices.Reverse(c.ids)
		}
		if flags&2 != 0 && n > 1 {
			c.ids = append(c.ids[1:], c.ids[0])
		}
		checkOrders(t, "fuzz", c)
	})
}

// grid16Window is a serving-sized window: 56 transactions on distinct
// nodes of a 16×16 grid, two of 64 objects each.
func grid16Window() *tm.Instance {
	r := rand.New(rand.NewSource(16))
	topo := topology.NewSquareGrid(16)
	g := topo.Graph()
	txns := make([]tm.Txn, 56)
	for i, v := range r.Perm(g.NumNodes())[:len(txns)] {
		objs := r.Perm(64)[:2]
		txns[i] = tm.Txn{Node: graph.NodeID(v), Objects: []tm.ObjectID{tm.ObjectID(objs[0]), tm.ObjectID(objs[1])}}
	}
	home := make([]graph.NodeID, 64)
	for o := range home {
		home[o] = graph.NodeID(r.Intn(g.NumNodes()))
	}
	return tm.NewInstance(g, graph.FuncMetric(topo.Dist), 64, txns, home)
}

// TestOrdersAllocateOneSlice: the counting orders keep their counts on
// the stack, so each call allocates only the order it returns.
func TestOrdersAllocateOneSlice(t *testing.T) {
	in := grid16Window()
	h := New(in, nil, in.Index())
	colors := h.Ranks(h.OrderByNode())
	if allocs := testing.AllocsPerRun(100, func() { h.OrderByNode() }); allocs != 1 {
		t.Errorf("OrderByNode allocated %.1f times per call, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.OrderByColor(colors) }); allocs != 1 {
		t.Errorf("OrderByColor allocated %.1f times per call, want 1", allocs)
	}
}

var orderSink []int

// BenchmarkOrderByColor orders a serving-sized grid16 window by rank, as
// the serving loop does once per window.
func BenchmarkOrderByColor(b *testing.B) {
	in := grid16Window()
	h := New(in, nil, in.Index())
	colors := h.Ranks(h.OrderByNode())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orderSink = h.OrderByColor(colors)
	}
}
