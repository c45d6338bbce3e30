package schedule

import (
	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
)

// Chain is the release chain every scheduler composes with (Definition 1):
// an object released at step t on node u reaches node v by step
// t + dist(u, v), and a node commits at most one transaction per step. It
// records each object's last release step and node (time 0 at its home
// initially) and each node's last commit step (0 = none yet).
type Chain struct {
	metric   graph.Metric
	relT     []int64
	relN     []graph.NodeID
	nodeLast []int64
}

// NewChain starts a chain over numNodes nodes whose objects rest at home at
// time 0.
func NewChain(metric graph.Metric, home []graph.NodeID, numNodes int) *Chain {
	return &Chain{
		metric:   metric,
		relT:     make([]int64, len(home)),
		relN:     append([]graph.NodeID(nil), home...),
		nodeLast: make([]int64, numNodes),
	}
}

// Earliest returns the first step at which a transaction on node can
// commit objs: every object must have traveled from its release point, and
// the node must be past its last commit (step 1 on a fresh chain).
func (c *Chain) Earliest(node graph.NodeID, objs []tm.ObjectID) int64 {
	t := c.nodeLast[node] + 1
	for _, o := range objs {
		if need := c.relT[o] + c.metric.Dist(c.relN[o], node); need > t {
			t = need
		}
	}
	return t
}

// Commit records a transaction on node committing objs at step t. Each
// object's release point moves to its latest user.
func (c *Chain) Commit(node graph.NodeID, objs []tm.ObjectID, t int64) {
	for _, o := range objs {
		if t > c.relT[o] {
			c.relT[o], c.relN[o] = t, node
		}
	}
	if t > c.nodeLast[node] {
		c.nodeLast[node] = t
	}
}

// Offset returns the smallest shift δ ≥ floor that lets a batch respect the
// chain: δ = max(floor, maxᵢ Earliest(ids[i]) − local[i]). The batch's local
// times must already be feasible among themselves (a dependency-graph
// coloring is); then, by the triangle inequality, only each object's first
// use in the batch can bind, so shifting every local time by δ yields a
// feasible continuation of the chain.
func (c *Chain) Offset(in *tm.Instance, ids []tm.TxnID, local []int64, floor int64) int64 {
	delta := floor
	for i, id := range ids {
		txn := &in.Txns[id]
		if need := c.Earliest(txn.Node, txn.Objects) - local[i]; need > delta {
			delta = need
		}
	}
	return delta
}

// Homes returns a copy of every object's current position: the homes a
// next batch scheduled against the chain starts from.
func (c *Chain) Homes() []graph.NodeID {
	return append([]graph.NodeID(nil), c.relN...)
}
