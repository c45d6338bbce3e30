package core

import (
	"testing"

	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
)

// composerInstance: line 0-1-2-3-4 with three transactions sharing
// object 0 (home node 0) and one using object 1 (home node 4).
func composerInstance() *tm.Instance {
	g := graph.New(5)
	for i := 0; i < 4; i++ {
		g.AddUnitEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return tm.NewInstance(g, nil, 2, []tm.Txn{
		{Node: 0, Objects: []tm.ObjectID{0}},
		{Node: 2, Objects: []tm.ObjectID{0}},
		{Node: 4, Objects: []tm.ObjectID{0, 1}},
	}, []graph.NodeID{0, 4})
}

func TestComposerBatchShift(t *testing.T) {
	in := composerInstance()
	c := newComposer(in)
	// Batch 1: txn0 at local time 1 — object 0 already home, δ = 0.
	c.appendBatch([]tm.TxnID{0}, []int64{1})
	if c.sched.Times[0] != 1 {
		t.Fatalf("t0 = %d, want 1", c.sched.Times[0])
	}
	// Batch 2: txn1 at local 1. Object 0 released at (1, node0), needs
	// 2 steps → δ = max(clock=1, 1+2−1=2) = 2, so t1 = 3.
	c.appendBatch([]tm.TxnID{1}, []int64{1})
	if c.sched.Times[1] != 3 {
		t.Fatalf("t1 = %d, want 3", c.sched.Times[1])
	}
	// Batch 3: txn2 at local 1. Object 0 at (3, node2), 2 away → needs 5;
	// object 1 home at node4, distance 0. δ = 4, t2 = 5.
	c.appendBatch([]tm.TxnID{2}, []int64{1})
	if c.sched.Times[2] != 5 {
		t.Fatalf("t2 = %d, want 5", c.sched.Times[2])
	}
	s := c.finish()
	if err := s.Validate(in); err != nil {
		t.Fatalf("composed schedule infeasible: %v", err)
	}
}

func TestComposerBatchesSerializeAfterClock(t *testing.T) {
	in := composerInstance()
	c := newComposer(in)
	c.appendBatch([]tm.TxnID{2}, []int64{4}) // t2 = 4 + δ(home dist 0 + obj0 dist 4 → δ=0) = 4
	if c.sched.Times[2] != 4 {
		t.Fatalf("t2 = %d, want 4", c.sched.Times[2])
	}
	// Next batch must start strictly after step 4 even without conflicts.
	c.appendBatch([]tm.TxnID{0}, []int64{1})
	if c.sched.Times[0] <= 4 {
		t.Fatalf("batch not serialized: t0 = %d", c.sched.Times[0])
	}
}

func TestComposerAppendOneParallelism(t *testing.T) {
	// Two transactions with disjoint objects both get step 1.
	g := graph.New(2)
	g.AddUnitEdge(0, 1)
	in := tm.NewInstance(g, nil, 2, []tm.Txn{
		{Node: 0, Objects: []tm.ObjectID{0}},
		{Node: 1, Objects: []tm.ObjectID{1}},
	}, []graph.NodeID{0, 1})
	c := newComposer(in)
	c.appendOne(0)
	c.appendOne(1)
	if c.sched.Times[0] != 1 || c.sched.Times[1] != 1 {
		t.Fatalf("times = %v, want both 1", c.sched.Times)
	}
	if err := c.finish().Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestComposerPanics(t *testing.T) {
	in := composerInstance()
	t.Run("double schedule", func(t *testing.T) {
		c := newComposer(in)
		c.appendOne(0)
		defer expectPanicT(t)
		c.appendOne(0)
	})
	t.Run("mismatched lengths", func(t *testing.T) {
		c := newComposer(in)
		defer expectPanicT(t)
		c.appendBatch([]tm.TxnID{0, 1}, []int64{1})
	})
	t.Run("zero local time", func(t *testing.T) {
		c := newComposer(in)
		defer expectPanicT(t)
		c.appendBatch([]tm.TxnID{0}, []int64{0})
	})
	t.Run("finish with pending", func(t *testing.T) {
		c := newComposer(in)
		c.appendOne(0)
		defer expectPanicT(t)
		c.finish()
	})
}

func TestComposerEmptyBatchNoop(t *testing.T) {
	in := composerInstance()
	c := newComposer(in)
	if got := c.appendBatch(nil, nil); got != 0 {
		t.Fatalf("empty batch advanced clock to %d", got)
	}
	if c.pending != 3 {
		t.Fatalf("pending = %d, want 3", c.pending)
	}
}

func expectPanicT(t *testing.T) {
	t.Helper()
	if recover() == nil {
		t.Fatal("expected panic")
	}
}
