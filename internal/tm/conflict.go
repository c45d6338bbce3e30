package tm

import (
	"fmt"
	"math"
)

// ConflictIndex is the shared object → member-transaction index: for every
// object o it lists, in ascending TxnID order, the transactions requesting
// o (the paper's set A_i). It is the single source of conflict information
// in the repo — the dependency-graph passes (internal/depgraph), the
// online executor (internal/online), and the baseline orderings
// (internal/baseline) all consume it instead of re-deriving memberships
// from Txns[].Objects.
//
// The index is immutable compressed sparse row storage: one flat member
// array, cut per object by one offsets array. An instance embeds its own
// (see Instance.Index), built once and shared read-only across concurrent
// engine jobs; IndexTxns builds a free-standing one over any transaction
// set.
type ConflictIndex struct {
	// off cuts members: object o's members are members[off[o]:off[o+1]].
	off     []int32
	members []TxnID
}

// IndexTxns builds the index of a transaction set, which must be in
// ascending TxnID order.
func IndexTxns(numObjects int, txns []Txn) *ConflictIndex {
	ci := new(ConflictIndex)
	ci.fill(numObjects, txns)
	return ci
}

// fill builds the index in two allocations. A counting pass sizes each
// object's member list, endOffsets turns the counts into end offsets, and
// a backward pass over the transactions places each member just below its
// object's end — so members come out ascending and the offsets finish as
// start offsets, with no cursor array.
func (ci *ConflictIndex) fill(numObjects int, txns []Txn) {
	off := make([]int32, numObjects+1)
	for i := range txns {
		for _, o := range txns[i].Objects {
			off[o]++
		}
	}
	members := make([]TxnID, endOffsets(off))
	for i := len(txns) - 1; i >= 0; i-- {
		for _, o := range txns[i].Objects {
			off[o]--
			members[off[o]] = txns[i].ID
		}
	}
	*ci = ConflictIndex{off: off, members: members}
}

// endOffsets turns the group counts off[:len(off)−1] into end offsets in
// place, stores the total in the last cell, and returns it.
func endOffsets(off []int32) int {
	var total int
	for g := range off[:len(off)-1] {
		total += int(off[g])
		if total > math.MaxInt32 {
			panic(fmt.Sprintf("tm: %d object requests overflow the index's int32 offsets", total))
		}
		off[g] = int32(total)
	}
	off[len(off)-1] = int32(total)
	return total
}

// MemberSource is the read-only view of conflict membership that
// consumers accept (the dependency-graph passes in particular): the
// object count plus each object's member transactions in ascending ID
// order. *ConflictIndex implements it directly; ShardView implements it
// for one shard of a PartitionedView.
type MemberSource interface {
	// NumObjects returns the number of objects the source covers.
	NumObjects() int
	// Members returns the transactions requesting object o, ascending by
	// ID. The slice aliases the source's storage: read-only.
	Members(o ObjectID) []TxnID
}

var (
	_ MemberSource = (*ConflictIndex)(nil)
	_ MemberSource = ShardView{}
)

// NumObjects returns the number of objects the index covers.
func (ci *ConflictIndex) NumObjects() int { return len(ci.off) - 1 }

// Members returns the transactions requesting object o, in ascending ID
// order. The returned slice is the index's own storage: callers must not
// modify it.
func (ci *ConflictIndex) Members(o ObjectID) []TxnID { return ci.members[ci.off[o]:ci.off[o+1]] }

// MaxUse returns ℓ = max_o |Members(o)|, zero for an empty index.
func (ci *ConflictIndex) MaxUse() int {
	maxUse := 0
	for o := 1; o < len(ci.off); o++ {
		maxUse = max(maxUse, int(ci.off[o]-ci.off[o-1]))
	}
	return maxUse
}

// PartitionedView regroups a ConflictIndex's member lists by shard
// without copying instances. It is a ConflictIndex over (object, shard)
// groups, so ShardView.Members is a zero-allocation subslice lookup and
// building the view costs one pass over the index. The hierarchical
// scheduler (internal/hier) builds one view per decomposition and hands
// each shard's ShardView to the dependency-graph builder in place of the
// full index.
type PartitionedView struct {
	shards int
	// groups holds the members of object o assigned to shard s as its
	// group o·shards+s.
	groups ConflictIndex
}

// Partition splits the index's member lists into shards groups according
// to shardOf, which maps every member TxnID to its shard in [0, shards).
// Within each (object, shard) group the ascending-ID member order of the
// source index is preserved.
func (ci *ConflictIndex) Partition(shards int, shardOf []int) *PartitionedView {
	if shards < 1 {
		panic(fmt.Sprintf("tm: partition into %d shards", shards))
	}
	w := ci.NumObjects()
	off := make([]int32, w*shards+1)
	for o := 0; o < w; o++ {
		for _, id := range ci.Members(ObjectID(o)) {
			s := shardOf[id]
			if s < 0 || s >= shards {
				panic(fmt.Sprintf("tm: transaction %d assigned to shard %d of %d", id, s, shards))
			}
			off[o*shards+s]++
		}
	}
	// As in fill: place each group's members backwards from its end.
	members := make([]TxnID, endOffsets(off))
	for o := 0; o < w; o++ {
		ms := ci.Members(ObjectID(o))
		for k := len(ms) - 1; k >= 0; k-- {
			g := o*shards + shardOf[ms[k]]
			off[g]--
			members[off[g]] = ms[k]
		}
	}
	return &PartitionedView{shards: shards, groups: ConflictIndex{off: off, members: members}}
}

// Shards returns the number of shards the view was built with.
func (pv *PartitionedView) Shards() int { return pv.shards }

// NumObjects returns the number of objects the view covers.
func (pv *PartitionedView) NumObjects() int { return pv.groups.NumObjects() / pv.shards }

// Members returns object o's members assigned to shard s, ascending by
// ID. Zero-allocation; the slice aliases the view's storage.
func (pv *PartitionedView) Members(s int, o ObjectID) []TxnID {
	return pv.groups.Members(o*ObjectID(pv.shards) + ObjectID(s))
}

// View returns shard s's MemberSource over the partitioned index.
func (pv *PartitionedView) View(s int) ShardView {
	if s < 0 || s >= pv.shards {
		panic(fmt.Sprintf("tm: view of shard %d of %d", s, pv.shards))
	}
	return ShardView{pv: pv, shard: s}
}

// ShardView is one shard's read-only MemberSource over a PartitionedView.
// The zero value is not usable; obtain one from PartitionedView.View.
type ShardView struct {
	pv    *PartitionedView
	shard int
}

// NumObjects implements MemberSource.
func (v ShardView) NumObjects() int { return v.pv.NumObjects() }

// Members implements MemberSource: object o's members within this shard.
func (v ShardView) Members(o ObjectID) []TxnID { return v.pv.Members(v.shard, o) }
