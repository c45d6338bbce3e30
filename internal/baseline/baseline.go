// Package baseline provides deliberately naive comparator schedulers. The
// experiment harness runs them against the paper's algorithms to show the
// gap the structured schedules buy: Sequential emulates a global-lock
// distributed TM (one transaction at a time, full transfer waits between
// commits); List is FIFO list scheduling that permits parallelism between
// non-conflicting transactions but ignores topology structure; Random is
// List over a random priority order, emulating randomized contention
// management. All three place transactions on a schedule.Chain.
package baseline

import (
	"fmt"
	"math/rand"

	"dtmsched/internal/core"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
)

// Sequential schedules transactions strictly one after another in ID
// order, waiting out every object transfer in between — the behavior of a
// single global lock circulating through the system.
type Sequential struct{}

// Name implements core.Scheduler.
func (Sequential) Name() string { return "baseline/sequential" }

// Schedule implements core.Scheduler.
func (b Sequential) Schedule(in *tm.Instance) (*core.Result, error) { return core.Checked(b, in) }

// ScheduleUnchecked implements core.Unchecked.
func (Sequential) ScheduleUnchecked(in *tm.Instance) (*core.Result, error) {
	c := schedule.NewChain(in.Metric, in.Home, in.G.NumNodes())
	s := schedule.New(in.NumTxns())
	var clock int64
	for i := range in.Txns {
		txn := &in.Txns[i]
		step := c.Earliest(txn.Node, txn.Objects)
		if step <= clock {
			step = clock + 1
		}
		s.Times[i] = step
		c.Commit(txn.Node, txn.Objects, step)
		clock = step
	}
	return newResult("baseline/sequential", s), nil
}

// List is FIFO list scheduling: each transaction, in priority order, takes
// the earliest step at which its objects can have reached it. Transactions
// with disjoint object sets may share a step, but no topology structure is
// exploited.
type List struct {
	// Order permutes transaction priorities; nil means ID order.
	Order []tm.TxnID
}

// Name implements core.Scheduler.
func (List) Name() string { return "baseline/list" }

// Schedule implements core.Scheduler.
func (l List) Schedule(in *tm.Instance) (*core.Result, error) { return core.Checked(l, in) }

// ScheduleUnchecked implements core.Unchecked.
func (l List) ScheduleUnchecked(in *tm.Instance) (*core.Result, error) {
	order := l.Order
	if order == nil {
		order = make([]tm.TxnID, in.NumTxns())
		for i := range order {
			order[i] = tm.TxnID(i)
		}
	}
	if len(order) != in.NumTxns() {
		return nil, fmt.Errorf("baseline: order has %d entries for %d transactions", len(order), in.NumTxns())
	}
	c := schedule.NewChain(in.Metric, in.Home, in.G.NumNodes())
	s := schedule.New(in.NumTxns())
	for _, id := range order {
		txn := &in.Txns[id]
		s.Times[id] = c.Earliest(txn.Node, txn.Objects)
		c.Commit(txn.Node, txn.Objects, s.Times[id])
	}
	return newResult("baseline/list", s), nil
}

// Random is List over a uniformly random priority order (randomized
// contention management).
type Random struct {
	Rng *rand.Rand
}

// Name implements core.Scheduler.
func (Random) Name() string { return "baseline/random" }

// Schedule implements core.Scheduler.
func (r Random) Schedule(in *tm.Instance) (*core.Result, error) { return core.Checked(r, in) }

// ScheduleUnchecked implements core.Unchecked.
func (r Random) ScheduleUnchecked(in *tm.Instance) (*core.Result, error) {
	if r.Rng == nil {
		return nil, fmt.Errorf("baseline: random scheduler needs an Rng")
	}
	order := make([]tm.TxnID, in.NumTxns())
	for i := range order {
		order[i] = tm.TxnID(i)
	}
	r.Rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	res, err := List{Order: order}.ScheduleUnchecked(in)
	if err != nil {
		return nil, err
	}
	res.Algorithm = "baseline/random"
	return res, nil
}

func newResult(name string, s *schedule.Schedule) *core.Result {
	return &core.Result{Schedule: s, Makespan: s.Makespan(), Algorithm: name, Stats: map[string]int64{}}
}

// NearestOrder returns a transaction priority order built by a
// nearest-neighbor tour over the transactions' nodes, starting from the
// first transaction. List scheduling in this order keeps consecutive
// users of each object close together, approximately minimizing total
// communication at the expense of parallelism — the communication-
// oriented end of the execution-time/communication-cost tradeoff of
// Busch et al. (PODC 2015) that the paper builds on.
func NearestOrder(in *tm.Instance) []tm.TxnID {
	m := in.NumTxns()
	if m == 0 {
		return nil
	}
	visited := make([]bool, m)
	order := make([]tm.TxnID, 0, m)
	cur := tm.TxnID(0)
	visited[0] = true
	order = append(order, cur)
	for len(order) < m {
		best := tm.TxnID(-1)
		var bestD int64
		for i := 0; i < m; i++ {
			if visited[i] {
				continue
			}
			d := in.Dist(in.Txns[cur].Node, in.Txns[i].Node)
			if best < 0 || d < bestD || (d == bestD && tm.TxnID(i) < best) {
				best, bestD = tm.TxnID(i), d
			}
		}
		visited[best] = true
		order = append(order, best)
		cur = best
	}
	return order
}
