package graph

// Metric reports shortest-path distances between nodes of a graph. A *Graph
// is itself a Metric (with memoized Dijkstra/BFS); specialized topologies
// supply closed-form O(1) metrics so that large instances never run
// all-pairs shortest paths.
type Metric interface {
	// Dist returns the shortest-path distance between u and v in
	// synchronous time steps. Dist(u, u) == 0 and Dist is symmetric.
	Dist(u, v NodeID) int64
}

// FuncMetric adapts a distance function to the Metric interface.
type FuncMetric func(u, v NodeID) int64

// Dist implements Metric.
func (f FuncMetric) Dist(u, v NodeID) int64 { return f(u, v) }

// MatrixMetric is a dense precomputed distance matrix, convenient for tests
// and for cross-checking closed-form metrics against the graph's own
// shortest paths.
type MatrixMetric [][]int64

// Dist implements Metric.
func (m MatrixMetric) Dist(u, v NodeID) int64 { return m[u][v] }

// CheckMetricAgrees verifies that metric m agrees with g's shortest paths
// for every node pair, returning the first disagreeing pair. It is O(n²)
// and intended for tests.
func CheckMetricAgrees(g *Graph, m Metric) (u, v NodeID, want, got int64, ok bool) {
	n := g.NumNodes()
	for i := 0; i < n; i++ {
		t := g.ShortestPaths(NodeID(i))
		for j := 0; j < n; j++ {
			got := m.Dist(NodeID(i), NodeID(j))
			if got != t.Dist[j] {
				return NodeID(i), NodeID(j), t.Dist[j], got, false
			}
		}
	}
	return 0, 0, 0, 0, true
}
