package tm

import (
	"math/rand"
	"slices"
	"testing"

	"dtmsched/internal/graph"
)

func conflictTestInstance() *Instance {
	g := graph.New(4)
	for i := 0; i < 3; i++ {
		g.AddUnitEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return NewInstance(g, nil, 3, []Txn{
		{Node: 0, Objects: []ObjectID{0, 1}},
		{Node: 1, Objects: []ObjectID{0}},
		{Node: 2, Objects: []ObjectID{1, 2}},
		{Node: 3, Objects: nil},
	}, []graph.NodeID{0, 1, 2})
}

func TestInstanceIndexBacksUsers(t *testing.T) {
	in := conflictTestInstance()
	index := in.Index()
	if index != in.Index() {
		t.Fatal("Index not cached")
	}
	want := map[ObjectID][]TxnID{0: {0, 1}, 1: {0, 2}, 2: {2}}
	for o, members := range want {
		if !slices.Equal(index.Members(o), members) {
			t.Fatalf("Members(%d) = %v, want %v", o, index.Members(o), members)
		}
		if !slices.Equal(in.Users(o), members) {
			t.Fatalf("Users(%d) = %v, want %v", o, in.Users(o), members)
		}
	}
	if in.MaxUse() != 2 || index.MaxUse() != 2 {
		t.Fatalf("MaxUse = %d/%d, want 2", in.MaxUse(), index.MaxUse())
	}
	if index.NumObjects() != 3 {
		t.Fatalf("NumObjects = %d", index.NumObjects())
	}
}

// TestIndexTxnsMatchesReference: the CSR's member lists equal a naive
// per-object scan on random instances, including objects no transaction
// requests, transactions that request nothing, and an empty object space.
func TestIndexTxnsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		numObjects := r.Intn(20) // 0 included
		txns := make([]Txn, r.Intn(30))
		for i := range txns {
			txns[i].ID = TxnID(i)
			if numObjects == 0 || r.Intn(4) == 0 {
				continue // requests nothing
			}
			for _, o := range r.Perm(numObjects)[:1+r.Intn(min(numObjects, 4))] {
				txns[i].Objects = append(txns[i].Objects, ObjectID(o))
			}
			sortObjects(txns[i].Objects)
		}
		ci := IndexTxns(numObjects, txns)
		if ci.NumObjects() != numObjects {
			t.Fatalf("trial %d: NumObjects = %d, want %d", trial, ci.NumObjects(), numObjects)
		}
		maxUse := 0
		for o := 0; o < numObjects; o++ {
			var want []TxnID
			for i := range txns {
				if txns[i].Uses(ObjectID(o)) {
					want = append(want, txns[i].ID)
				}
			}
			if got := ci.Members(ObjectID(o)); !slices.Equal(got, want) {
				t.Fatalf("trial %d object %d: Members = %v, want %v", trial, o, got, want)
			}
			maxUse = max(maxUse, len(want))
		}
		if ci.MaxUse() != maxUse {
			t.Fatalf("trial %d: MaxUse = %d, want %d", trial, ci.MaxUse(), maxUse)
		}
	}
}

// TestInstanceIndexAllocs is the CI guard on the embedded index: building
// an instance's index costs its offsets and its member array, at every
// size.
func TestInstanceIndexAllocs(t *testing.T) {
	for _, n := range []int{2, 16, 1024, 16384} {
		const runs = 20
		ins := make([]*Instance, runs+1) // AllocsPerRun adds a warm-up run
		g := graph.New(n)
		for i := range ins {
			txns := make([]Txn, n)
			for j := range txns {
				txns[j] = Txn{Node: graph.NodeID(j), Objects: []ObjectID{ObjectID(j / 2), ObjectID(n/2 + j/2)}}
			}
			ins[i] = NewInstance(g, nil, n, txns, make([]graph.NodeID, n))
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			ins[next].Index()
			next++
		})
		if allocs != 2 {
			t.Fatalf("%d transactions: Index() allocated %.1f times, want 2", n, allocs)
		}
	}
}
