package experiments

import (
	"dtmsched/internal/graph"
	"dtmsched/internal/topology"
)

// metric adapts a topology's distance oracle to graph.Metric: the
// closed form where one exists, the graph itself where the topology
// falls back to shortest-path search — exposing the graph directly lets
// instances install the precomputed matrix (Config.prepare).
func metric(t topology.Topology) graph.Metric {
	if topology.MetricFallsBackToGraph(t) {
		return t.Graph()
	}
	return graph.FuncMetric(t.Dist)
}

func maxOf2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minOf2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
