// Package hier implements the hierarchical fog–cloud scheduler: transactions
// are partitioned by their lowest-common-ancestor subtree at a shard tier of
// a topology.FogCloud tree, each subtree's purely local conflicts are
// scheduled independently on a parallel worker pool (each shard coloring its
// own dependency graph straight from a tm.ShardView of the instance's
// conflict index), and a top-level merge pass schedules the remaining cross-tier
// transactions after the release points the local phase leaves behind. The
// approach follows "A Poly-Log Approximation for Transaction Scheduling in
// Fog-Cloud Computing and Beyond" (Adhikari, Busch, Poudel): subtree-local
// work never pays cloud-link latency, and only genuinely cross-subtree
// conflicts climb the tree.
//
// Like every scheduler in the repo, the result is feasible by construction
// (exact per-shard and merge offsets on one schedule.Chain, not
// probabilistic accounting), re-validated by schedule.Validate, and its
// decomposition cross-checked for subtree containment. Results
// are byte-identical at every worker count: shards compute into private
// slots and the composition never depends on completion order.
package hier

import (
	"fmt"

	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
)

// Decomposition is the subtree partition of an instance at a shard tier:
// every node of the communication tree at or below the tier belongs to
// exactly one tier subtree ("shard"), and every transaction and object is
// classified as local to one shard or cross-tier.
type Decomposition struct {
	// Tier is the shard tier: shard s is the subtree rooted at the s-th
	// tier-Tier node.
	Tier int
	// Shards is the number of subtrees, topology.FogCloud.TierSize(Tier).
	Shards int

	// NodeShard maps each node to its subtree index in [0, Shards), or −1
	// for nodes above the shard tier (they belong to no subtree).
	NodeShard []int
	// TxnShard maps each transaction to its shard, with the extra index
	// Shards for cross-tier transactions — exactly the layout
	// tm.ConflictIndex.Partition consumes.
	TxnShard []int
	// ObjShard maps each object to the shard it is local to, or −1 when it
	// is cross-tier (its home or any user sits outside a single subtree).
	ObjShard []int

	// Local lists each shard's local transactions in ascending ID order.
	Local [][]tm.TxnID
	// Cross lists the cross-tier transactions in ascending ID order.
	Cross []tm.TxnID
	// CrossObjects counts the requested objects classified cross-tier.
	CrossObjects int
}

// Decompose partitions in's transactions by their tier-t subtree on topo.
// An object is local to shard s when its home and every user lie inside
// subtree s; a transaction is local when its node lies in a subtree and
// every object it requests is local to that subtree. Everything else is
// cross-tier. Local objects of distinct shards are disjoint, and a local
// transaction never conflicts with a transaction of another shard — the
// invariant that lets shards schedule concurrently and overlap in time.
func Decompose(topo *topology.FogCloud, in *tm.Instance, tier int) *Decomposition {
	if tier < 0 || tier >= topo.Tiers() {
		panic(fmt.Sprintf("hier: shard tier %d outside [0, %d)", tier, topo.Tiers()))
	}
	n := topo.Graph().NumNodes()
	if in.G.NumNodes() != n {
		panic(fmt.Sprintf("hier: instance has %d nodes, topology %d", in.G.NumNodes(), n))
	}
	d := &Decomposition{
		Tier:      tier,
		Shards:    topo.TierSize(tier),
		NodeShard: make([]int, n),
		TxnShard:  make([]int, in.NumTxns()),
		ObjShard:  make([]int, in.NumObjects),
		Local:     make([][]tm.TxnID, topo.TierSize(tier)),
	}
	base := int(topo.TierStart(tier))
	for u := 0; u < n; u++ {
		if topo.TierOf(graph.NodeID(u)) < tier {
			d.NodeShard[u] = -1
			continue
		}
		d.NodeShard[u] = int(topo.Ancestor(graph.NodeID(u), tier)) - base
	}

	// Object classification: local to the common subtree of its home and
	// all users, or cross when no such subtree exists.
	for o := range d.ObjShard {
		s := d.NodeShard[in.Home[o]]
		for _, id := range in.Users(tm.ObjectID(o)) {
			if s < 0 {
				break
			}
			if d.NodeShard[in.Txns[id].Node] != s {
				s = -1
			}
		}
		d.ObjShard[o] = s
		if s < 0 && len(in.Users(tm.ObjectID(o))) > 0 {
			d.CrossObjects++
		}
	}

	// Transaction classification. A transaction using object o is one of
	// o's users, so if every requested object is local they are all local
	// to the transaction's own subtree.
	for i := range in.Txns {
		s := d.NodeShard[in.Txns[i].Node]
		for _, o := range in.Txns[i].Objects {
			if s < 0 {
				break
			}
			if d.ObjShard[o] != s {
				s = -1
			}
		}
		if s >= 0 {
			d.TxnShard[i] = s
			d.Local[s] = append(d.Local[s], tm.TxnID(i))
		} else {
			d.TxnShard[i] = d.Shards
			d.Cross = append(d.Cross, tm.TxnID(i))
		}
	}
	return d
}

// LocalTxns returns the total number of shard-local transactions.
func (d *Decomposition) LocalTxns() int {
	total := 0
	for _, ids := range d.Local {
		total += len(ids)
	}
	return total
}

// MaxShardTxns returns the largest shard's local transaction count.
func (d *Decomposition) MaxShardTxns() int {
	maxLen := 0
	for _, ids := range d.Local {
		if len(ids) > maxLen {
			maxLen = len(ids)
		}
	}
	return maxLen
}

// CrossCheck verifies the decomposition's containment invariant: a
// shard-local object's home and every one of its users must lie inside
// that shard's subtree, so no local schedule ever moves an object across a
// tier boundary. (Schedule feasibility itself is schedule.Validate's job.)
func CrossCheck(d *Decomposition, in *tm.Instance) error {
	for o := 0; o < in.NumObjects; o++ {
		so := d.ObjShard[o]
		if so < 0 {
			continue
		}
		if hs := d.NodeShard[in.Home[o]]; hs != so {
			return fmt.Errorf("hier: object %d is local to shard %d but homed on node %d of shard %d",
				o, so, in.Home[o], hs)
		}
		for _, id := range in.Users(tm.ObjectID(o)) {
			if ns := d.NodeShard[in.Txns[id].Node]; ns != so {
				return fmt.Errorf("hier: object %d is local to shard %d but used by transaction %d on node %d of shard %d",
					o, so, id, in.Txns[id].Node, ns)
			}
		}
	}
	return nil
}
