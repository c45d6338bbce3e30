package tm

import (
	"testing"
)

// partitionFixture builds an index over 4 objects and 6 transactions with
// shard assignment {0,0,1,1,2,2}.
func partitionFixture() (*ConflictIndex, []int) {
	ci := IndexTxns(4, []Txn{
		{ID: 0, Objects: []ObjectID{0, 1}},
		{ID: 1, Objects: []ObjectID{0, 2}},
		{ID: 2, Objects: []ObjectID{0, 1, 3}},
		{ID: 3, Objects: []ObjectID{2}},
		{ID: 4, Objects: []ObjectID{3}},
		{ID: 5, Objects: []ObjectID{0, 3}},
	})
	return ci, []int{0, 0, 1, 1, 2, 2}
}

func TestPartitionedViewGroups(t *testing.T) {
	ci, shardOf := partitionFixture()
	pv := ci.Partition(3, shardOf)
	if pv.Shards() != 3 || pv.NumObjects() != 4 {
		t.Fatalf("shards=%d objects=%d", pv.Shards(), pv.NumObjects())
	}
	want := map[[2]int][]TxnID{
		{0, 0}: {0, 1}, {1, 0}: {2}, {2, 0}: {5},
		{0, 1}: {0}, {1, 1}: {2}, {2, 1}: {},
		{0, 2}: {1}, {1, 2}: {3}, {2, 2}: {},
		{0, 3}: {}, {1, 3}: {2}, {2, 3}: {4, 5},
	}
	for key, ids := range want {
		got := pv.Members(key[0], ObjectID(key[1]))
		if len(got) != len(ids) {
			t.Fatalf("shard %d object %d: got %v, want %v", key[0], key[1], got, ids)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("shard %d object %d: got %v, want %v", key[0], key[1], got, ids)
			}
		}
	}
	// Per (object, shard) groups partition each full member list.
	for o := 0; o < 4; o++ {
		var merged []TxnID
		for s := 0; s < 3; s++ {
			merged = append(merged, pv.Members(s, ObjectID(o))...)
		}
		full := ci.Members(ObjectID(o))
		seen := map[TxnID]bool{}
		for _, id := range merged {
			seen[id] = true
		}
		if len(merged) != len(full) {
			t.Fatalf("object %d: view has %d members, index %d", o, len(merged), len(full))
		}
		for _, id := range full {
			if !seen[id] {
				t.Fatalf("object %d: member %d missing from view", o, id)
			}
		}
	}
}

func TestShardViewImplementsMemberSource(t *testing.T) {
	ci, shardOf := partitionFixture()
	pv := ci.Partition(3, shardOf)
	var src MemberSource = pv.View(1)
	if src.NumObjects() != 4 {
		t.Fatalf("NumObjects = %d", src.NumObjects())
	}
	ms := src.Members(3)
	if len(ms) != 1 || ms[0] != 2 {
		t.Fatalf("shard 1 members of object 3 = %v", ms)
	}
}

// TestPartitionedViewZeroAlloc is the CI guard: warm member lookups
// through the shard view — the depgraph builder's inner loop — must not
// allocate.
func TestPartitionedViewZeroAlloc(t *testing.T) {
	ci, shardOf := partitionFixture()
	pv := ci.Partition(3, shardOf)
	views := make([]MemberSource, 3)
	for s := range views {
		views[s] = pv.View(s)
	}
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for _, v := range views {
			for o := 0; o < v.NumObjects(); o++ {
				sink += len(v.Members(ObjectID(o)))
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("shard-view member walk allocated %.1f/op, want 0", allocs)
	}
	_ = sink
}

func TestPartitionBadShard(t *testing.T) {
	ci, _ := partitionFixture()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range shard assignment")
		}
	}()
	ci.Partition(2, []int{0, 0, 1, 1, 2, 2}) // shard 2 out of range
}
