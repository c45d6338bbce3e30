package core

import (
	"fmt"

	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
)

// composer stitches locally-computed batch schedules (one subgrid, one
// phase, one round, …) into a single globally feasible schedule. Its
// release chain tracks where and when each object was last released, and
// each batch is shifted by the exact offset δ that satisfies every
// cross-batch object-movement constraint — the constructive counterpart of
// the paper's "transition periods".
type composer struct {
	in    *tm.Instance
	sched *schedule.Schedule
	chain *schedule.Chain
	clock int64 // last step used by any scheduled transaction

	done    []bool // per transaction
	pending int
}

func newComposer(in *tm.Instance) *composer {
	return &composer{
		in:      in,
		sched:   schedule.New(in.NumTxns()),
		chain:   schedule.NewChain(in.Metric, in.Home, in.G.NumNodes()),
		done:    make([]bool, in.NumTxns()),
		pending: in.NumTxns(),
	}
}

// appendBatch schedules the given transactions at local times (each ≥ 1),
// shifted by the smallest δ ≥ clock that respects every object's release
// point. Local times must already satisfy all intra-batch constraints (a
// valid dependency-graph coloring does). It returns the batch's global
// completion step.
func (c *composer) appendBatch(ids []tm.TxnID, local []int64) int64 {
	if len(ids) != len(local) {
		panic(fmt.Sprintf("core: batch of %d transactions with %d times", len(ids), len(local)))
	}
	for i, id := range ids {
		if c.done[id] {
			panic(fmt.Sprintf("core: transaction %d scheduled twice", id))
		}
		if local[i] < 1 {
			panic(fmt.Sprintf("core: local time %d < 1 for transaction %d", local[i], id))
		}
	}
	delta := c.chain.Offset(c.in, ids, local, c.clock)
	for i, id := range ids {
		c.commit(id, local[i]+delta)
	}
	return c.clock
}

// appendOne schedules a single transaction at the earliest feasible step
// given current release points (list scheduling). Unlike appendBatch it
// does not serialize after the clock, so independent transactions may
// share steps.
func (c *composer) appendOne(id tm.TxnID) int64 {
	if c.done[id] {
		panic(fmt.Sprintf("core: transaction %d scheduled twice", id))
	}
	txn := &c.in.Txns[id]
	t := c.chain.Earliest(txn.Node, txn.Objects)
	c.commit(id, t)
	return t
}

// commit fixes transaction id at global step t.
func (c *composer) commit(id tm.TxnID, t int64) {
	txn := &c.in.Txns[id]
	c.sched.Times[id] = t
	c.done[id] = true
	c.pending--
	if t > c.clock {
		c.clock = t
	}
	c.chain.Commit(txn.Node, txn.Objects, t)
}

// finish asserts completeness and returns the composed schedule.
func (c *composer) finish() *schedule.Schedule {
	if c.pending != 0 {
		panic(fmt.Sprintf("core: %d transactions left unscheduled", c.pending))
	}
	return c.sched
}
