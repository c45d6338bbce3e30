package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(0)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph reports n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.Connected() {
		t.Fatal("empty graph should count as connected")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer expectPanic(t, "negative node count")
	New(-1)
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 5)
	g.AddUnitEdge(1, 2)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d, want 2", g.Degree(1))
	}
	if w, ok := g.HasEdge(0, 1); !ok || w != 5 {
		t.Fatalf("HasEdge(0,1) = %d,%v want 5,true", w, ok)
	}
	if _, ok := g.HasEdge(0, 2); ok {
		t.Fatal("HasEdge(0,2) should be false")
	}
	if g.UnitWeight() {
		t.Fatal("graph with a weight-5 edge reports UnitWeight")
	}
	if g.MaxEdgeWeight() != 5 {
		t.Fatalf("MaxEdgeWeight = %d, want 5", g.MaxEdgeWeight())
	}
}

func TestAddEdgeParallelKeepsMinWeight(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 7)
	g.AddEdge(0, 1, 3)
	if w, ok := g.HasEdge(0, 1); !ok || w != 3 {
		t.Fatalf("HasEdge with parallel edges = %d,%v want 3,true", w, ok)
	}
	if d := g.Dist(0, 1); d != 3 {
		t.Fatalf("Dist across parallel edges = %d, want 3", d)
	}
}

func TestAddEdgePanics(t *testing.T) {
	t.Run("self-loop", func(t *testing.T) {
		g := New(2)
		defer expectPanic(t, "self loop")
		g.AddEdge(1, 1, 1)
	})
	t.Run("zero weight", func(t *testing.T) {
		g := New(2)
		defer expectPanic(t, "zero weight")
		g.AddEdge(0, 1, 0)
	})
	t.Run("out of range", func(t *testing.T) {
		g := New(2)
		defer expectPanic(t, "node out of range")
		g.AddEdge(0, 2, 1)
	})
}

func TestConnected(t *testing.T) {
	g := New(4)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(2, 3)
	if g.Connected() {
		t.Fatal("two components reported connected")
	}
	g.AddUnitEdge(1, 2)
	if !g.Connected() {
		t.Fatal("path graph reported disconnected")
	}
}

func TestBFSPathOnPathGraph(t *testing.T) {
	g := New(5)
	for i := 0; i < 4; i++ {
		g.AddUnitEdge(NodeID(i), NodeID(i+1))
	}
	tree := g.ShortestPaths(0)
	for v := 0; v < 5; v++ {
		if tree.Dist[v] != int64(v) {
			t.Fatalf("Dist[%d] = %d, want %d", v, tree.Dist[v], v)
		}
	}
	path := tree.PathTo(4)
	want := []NodeID{0, 1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestDijkstraPicksCheaperLongerRoute(t *testing.T) {
	// 0—1 weight 10, but 0—2—1 weight 2+3.
	g := New(3)
	g.AddEdge(0, 1, 10)
	g.AddEdge(0, 2, 2)
	g.AddEdge(2, 1, 3)
	if d := g.Dist(0, 1); d != 5 {
		t.Fatalf("Dist(0,1) = %d, want 5", d)
	}
	p := g.Path(0, 1)
	if len(p) != 3 || p[1] != 2 {
		t.Fatalf("Path(0,1) = %v, want [0 2 1]", p)
	}
}

func TestUnreachable(t *testing.T) {
	g := New(3)
	g.AddUnitEdge(0, 1)
	if d := g.Dist(0, 2); d != Inf {
		t.Fatalf("Dist to unreachable = %d, want Inf", d)
	}
	if p := g.Path(0, 2); p != nil {
		t.Fatalf("Path to unreachable = %v, want nil", p)
	}
	if e := g.Eccentricity(0); e != Inf {
		t.Fatalf("Eccentricity in disconnected graph = %d, want Inf", e)
	}
	if d := g.Diameter(); d != Inf {
		t.Fatalf("Diameter of disconnected graph = %d, want Inf", d)
	}
}

func TestCacheInvalidatedByAddEdge(t *testing.T) {
	g := New(3)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	if d := g.Dist(0, 2); d != 2 {
		t.Fatalf("Dist(0,2) = %d, want 2", d)
	}
	g.AddUnitEdge(0, 2) // shortcut
	if d := g.Dist(0, 2); d != 1 {
		t.Fatalf("Dist(0,2) after shortcut = %d, want 1 (stale cache?)", d)
	}
}

// randomConnectedGraph builds a connected graph on n nodes: a random
// spanning tree plus extra random edges, with weights in [1, maxW].
func randomConnectedGraph(r *rand.Rand, n, extraEdges int, maxW int64) *Graph {
	g := New(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		u := NodeID(perm[i])
		v := NodeID(perm[r.Intn(i)])
		g.AddEdge(u, v, 1+r.Int63n(maxW))
	}
	for e := 0; e < extraEdges; e++ {
		u := NodeID(r.Intn(n))
		v := NodeID(r.Intn(n))
		if u != v {
			g.AddEdge(u, v, 1+r.Int63n(maxW))
		}
	}
	return g
}

// floydWarshall is an independent all-pairs implementation used to
// cross-check Dijkstra/BFS.
func floydWarshall(g *Graph) [][]int64 {
	n := g.NumNodes()
	const inf = int64(1) << 50
	d := make([][]int64, n)
	for i := range d {
		d[i] = make([]int64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = inf
			}
		}
	}
	for u := 0; u < n; u++ {
		for _, e := range g.Neighbors(NodeID(u)) {
			if e.Weight < d[u][e.To] {
				d[u][e.To] = e.Weight
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(24)
		g := randomConnectedGraph(r, n, r.Intn(2*n), 9)
		want := floydWarshall(g)
		for u := 0; u < n; u++ {
			tree := g.ShortestPaths(NodeID(u))
			for v := 0; v < n; v++ {
				if tree.Dist[v] != want[u][v] {
					t.Fatalf("trial %d: Dist(%d,%d) = %d, want %d", trial, u, v, tree.Dist[v], want[u][v])
				}
			}
		}
	}
}

func TestMetricAxiomsProperty(t *testing.T) {
	// Shortest-path distances must satisfy symmetry and the triangle
	// inequality on any random connected graph.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(16)
		g := randomConnectedGraph(r, n, n, 7)
		for trial := 0; trial < 32; trial++ {
			a := NodeID(r.Intn(n))
			b := NodeID(r.Intn(n))
			c := NodeID(r.Intn(n))
			if g.Dist(a, b) != g.Dist(b, a) {
				return false
			}
			if g.Dist(a, c) > g.Dist(a, b)+g.Dist(b, c) {
				return false
			}
			if a == b && g.Dist(a, b) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPathConsistentWithDist(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(16)
		g := randomConnectedGraph(r, n, n/2, 5)
		u := NodeID(r.Intn(n))
		v := NodeID(r.Intn(n))
		p := g.Path(u, v)
		if len(p) == 0 || p[0] != u || p[len(p)-1] != v {
			return u == v && len(p) == 1
		}
		var total int64
		for i := 0; i+1 < len(p); i++ {
			w, ok := g.HasEdge(p[i], p[i+1])
			if !ok {
				return false
			}
			total += w
		}
		return total == g.Dist(u, v)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDiameterParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		g := randomConnectedGraph(r, 3+r.Intn(30), r.Intn(20), 6)
		var serial int64
		for u := 0; u < g.NumNodes(); u++ {
			if e := g.eccUncached(NodeID(u)); e > serial {
				serial = e
			}
		}
		for _, workers := range []int{1, 2, 8} {
			if d := g.DiameterParallel(workers); d != serial {
				t.Fatalf("DiameterParallel(%d) = %d, want %d", workers, d, serial)
			}
		}
	}
}

func TestAllPairsMatchesTrees(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randomConnectedGraph(r, 20, 15, 4)
	g.Precompute(4)
	if !g.Precomputed() {
		t.Fatal("Precompute installed no matrix")
	}
	for u := 0; u < 20; u++ {
		tree := g.ShortestPaths(NodeID(u))
		for v := 0; v < 20; v++ {
			if d := g.Dist(NodeID(u), NodeID(v)); d != tree.Dist[v] {
				t.Fatalf("precomputed Dist(%d, %d) = %d, want %d", u, v, d, tree.Dist[v])
			}
		}
	}
}

func TestSortedNeighborsDeterministic(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 3, 2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 5)
	ns := g.SortedNeighbors(0)
	for i := 1; i < len(ns); i++ {
		if ns[i-1].To > ns[i].To {
			t.Fatalf("SortedNeighbors not sorted: %v", ns)
		}
	}
}

func TestMatrixAndFuncMetric(t *testing.T) {
	g := New(3)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	mm := make(MatrixMetric, g.NumNodes())
	for u := range mm {
		mm[u] = g.ShortestPaths(NodeID(u)).Dist
	}
	if _, _, _, _, ok := CheckMetricAgrees(g, mm); !ok {
		t.Fatal("MatrixMetric from shortest-path trees disagrees with graph")
	}
	fm := FuncMetric(func(u, v NodeID) int64 { return g.Dist(u, v) })
	if _, _, _, _, ok := CheckMetricAgrees(g, fm); !ok {
		t.Fatal("FuncMetric wrapper disagrees with graph")
	}
	bad := FuncMetric(func(u, v NodeID) int64 { return 0 })
	if _, _, _, _, ok := CheckMetricAgrees(g, bad); ok {
		t.Fatal("CheckMetricAgrees accepted a wrong metric")
	}
}

func TestTreeCachingReturnsSameTree(t *testing.T) {
	g := New(3)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	t1 := g.Tree(0)
	t2 := g.Tree(0)
	if t1 != t2 {
		t.Fatal("Tree(0) not cached")
	}
}

func TestStringer(t *testing.T) {
	g := NewNamed("demo", 2)
	g.AddUnitEdge(0, 1)
	if got := g.String(); got != "demo(n=2, m=1)" {
		t.Fatalf("String() = %q", got)
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}

func TestDOTExport(t *testing.T) {
	g := NewNamed("demo", 3)
	g.AddUnitEdge(0, 1)
	g.AddEdge(1, 2, 5)
	dot := g.DOT()
	for _, want := range []string{`graph "demo" {`, "0 -- 1;", "1 -- 2 [label=5];", "}"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Each undirected edge appears exactly once.
	if strings.Count(dot, "--") != 2 {
		t.Fatalf("edge count wrong:\n%s", dot)
	}
}
