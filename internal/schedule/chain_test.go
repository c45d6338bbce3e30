package schedule

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dtmsched/internal/tm"
)

func chainFor(in *tm.Instance) *Chain {
	return NewChain(in.Metric, in.Home, in.G.NumNodes())
}

func TestChainEarliestAndCommit(t *testing.T) {
	in := tinyInstance()
	c := chainFor(in)
	// Fresh chain: the node floor gives step 1 when the object is home.
	if got := c.Earliest(0, []tm.ObjectID{0}); got != 1 {
		t.Fatalf("Earliest(node0, {0}) = %d, want 1", got)
	}
	// object1 travels 2 hops from its home at node 3.
	if got := c.Earliest(1, []tm.ObjectID{0, 1}); got != 2 {
		t.Fatalf("Earliest(node1, {0,1}) = %d, want 2", got)
	}
	c.Commit(0, []tm.ObjectID{0}, 5)
	if got := c.Earliest(1, []tm.ObjectID{0, 1}); got != 6 {
		t.Fatalf("after release at (5, node0): Earliest = %d, want 6", got)
	}
	// An earlier commit never moves the release point back (max-update).
	c.Commit(3, []tm.ObjectID{0}, 2)
	if got := c.Earliest(1, []tm.ObjectID{0}); got != 6 {
		t.Fatalf("stale commit moved object 0: Earliest = %d, want 6", got)
	}
	// The node floor binds over an object already at the node.
	c.Commit(3, []tm.ObjectID{1}, 9)
	if got := c.Earliest(3, []tm.ObjectID{1}); got != 10 {
		t.Fatalf("Earliest(node3, {1}) = %d, want 10 (node busy at 9)", got)
	}
	if got := c.Homes(); got[0] != 0 || got[1] != 3 {
		t.Fatalf("Homes = %v, want [0 3]", got)
	}
}

func TestChainOffsetFloors(t *testing.T) {
	in := tinyInstance()
	// Fresh chain, the feasible batch {1,3,1}: nothing binds but the floor.
	ids, local := []tm.TxnID{0, 1, 2}, []int64{1, 3, 1}
	for _, floor := range []int64{0, 4, 5} {
		if got := chainFor(in).Offset(in, ids, local, floor); got != floor {
			t.Fatalf("fresh Offset(floor %d) = %d", floor, got)
		}
	}
	// Object 0 released at (6, node0), the clock: txn1 needs step 7.
	c := chainFor(in)
	c.Commit(0, []tm.ObjectID{0}, 6)
	for _, tc := range []struct{ floor, want int64 }{{0, 6}, {6, 6}, {7, 7}} {
		if got := c.Offset(in, []tm.TxnID{1}, []int64{1}, tc.floor); got != tc.want {
			t.Fatalf("Offset(floor %d) = %d, want %d", tc.floor, got, tc.want)
		}
	}
}

// TestOffsetMatchesFirstUseProperty pins the all-transactions Offset to the
// per-object first-use rule it replaced: on a batch that is feasible among
// itself, only each object's earliest use in the batch can bind.
func TestOffsetMatchesFirstUseProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r)
		// Any subset of a feasible schedule is feasible among itself.
		sched := listSchedule(r, in)
		perm := r.Perm(in.NumTxns())
		split := r.Intn(len(perm) + 1)
		// History: list-schedule a random prefix onto the chain; the
		// rest forms the batch.
		c := chainFor(in)
		for _, i := range perm[:split] {
			txn := &in.Txns[i]
			c.Commit(txn.Node, txn.Objects, c.Earliest(txn.Node, txn.Objects))
		}
		var ids []tm.TxnID
		var local []int64
		for _, i := range perm[split:] {
			ids = append(ids, tm.TxnID(i))
			local = append(local, sched.Times[i])
		}
		floor := r.Int63n(8)
		first := map[tm.ObjectID]int{} // object → batch index of its first use
		for j, id := range ids {
			for _, o := range in.Txns[id].Objects {
				if k, ok := first[o]; !ok || local[j] < local[k] {
					first[o] = j
				}
			}
		}
		want := floor
		for o, j := range first {
			if need := c.relT[o] + in.Dist(c.relN[o], in.Txns[ids[j]].Node) - local[j]; need > want {
				want = need
			}
		}
		return c.Offset(in, ids, local, floor) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
