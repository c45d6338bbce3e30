package schedule

import (
	"fmt"

	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
)

// ChainChecker verifies a sequence of schedules (windows over one object
// space) against Definition 1, independently of any scheduler's
// bookkeeping — it deliberately shares no code with Chain. Every object's
// users, in execution order and across window boundaries, must be
// reachable from wherever the previous user released it (an object
// released at step t on node u reaches node v no earlier than
// t + dist(u, v)), and the transactions a node hosts must commit at
// strictly increasing steps. State advances window by window, so feeding
// every window of a sequence through Check validates the whole
// composition; Validate is the one-window case.
type ChainChecker struct {
	// relT / relN track each object's release step and node after the
	// windows checked so far (the virtual time-0 holder initially), and
	// travel its summed handoff distance (nil in Validate's one-shot check).
	relT   []int64
	relN   []graph.NodeID
	travel []int64
	// nodeLast is the last verified commit step per node (0 = none).
	nodeLast []int64
	order    []tm.TxnID // Check's sweep scratch
	counts   []int32    // its step counts for long spans
}

// NewChainChecker starts a checker for a sequence whose objects begin at
// the given homes.
func NewChainChecker(home []graph.NodeID) *ChainChecker {
	return &ChainChecker{
		relT:   make([]int64, len(home)),
		relN:   append([]graph.NodeID(nil), home...),
		travel: make([]int64, len(home)),
	}
}

// Travel returns each object's summed handoff distance over the windows
// checked so far — Check's sweep is that walk — so after feasible windows
// it is the sum of their Schedule.Travel from the homes held at each cut.
func (c *ChainChecker) Travel() []int64 { return c.travel }

// Check validates one window's schedule against the chained state and,
// when feasible, advances the state past it; distances come from in.Dist.
// The instance must share the sequence's object space (NumObjects), and a
// transaction on a node outside in.G is an error. On error the checker
// state is unspecified; a failed sequence should not be checked further.
func (c *ChainChecker) Check(in *tm.Instance, s *Schedule) error {
	if len(s.Times) != in.NumTxns() {
		return fmt.Errorf("schedule: %d times for %d transactions", len(s.Times), in.NumTxns())
	}
	if in.NumObjects != len(c.relT) {
		return fmt.Errorf("schedule: instance has %d objects, checker tracks %d", in.NumObjects, len(c.relT))
	}
	n := in.G.NumNodes()
	if len(c.nodeLast) < n {
		c.nodeLast = append(c.nodeLast, make([]int64, n-len(c.nodeLast))...)
	}
	for i, t := range s.Times {
		if t < 1 {
			return fmt.Errorf("schedule: transaction %d has time %d < 1", i, t)
		}
		if node := in.Txns[i].Node; node < 0 || int(node) >= n {
			return fmt.Errorf("schedule: transaction %d on node %d outside [0,%d)", i, node, n)
		}
	}

	// Sweep the window in (time, ID) order: restricted to one object this
	// is its handoff order, restricted to one node its commit order.
	c.order, c.counts = sweep(c.order, c.counts, s.Times)
	for _, id := range c.order {
		t, node := s.Times[id], in.Txns[id].Node
		if last := c.nodeLast[node]; t <= last {
			return fmt.Errorf("schedule: node %d commits transaction %d at step %d, not after step %d",
				node, id, t, last)
		}
		c.nodeLast[node] = t
		for _, o := range in.Txns[id].Objects {
			// A tie among users of a shared object is infeasible: the
			// object cannot be at two nodes at once.
			if t == c.relT[o] {
				return fmt.Errorf("schedule: object %d used on nodes %d and %d both at step %d",
					o, c.relN[o], node, t)
			}
			if need := c.relT[o] + in.Dist(c.relN[o], node); t < need {
				return fmt.Errorf("schedule: object %d released at step %d on node %d cannot reach transaction %d (node %d) by step %d",
					o, c.relT[o], c.relN[o], id, node, t)
			} else if c.travel != nil {
				c.travel[o] += need - c.relT[o] // the handoff distance
			}
			c.relT[o], c.relN[o] = t, node
		}
	}
	return nil
}
