package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dtmsched/internal/depgraph"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
)

// Star is the Section 7 schedule for the star graph (α rays of β nodes
// around a center). Rays are cut into η = ⌈log₂ β⌉ segments of
// exponentially growing length; the center's transaction executes first,
// then period i executes the transactions of V_i — the ith segment of
// every ray — treating segments as clusters that communicate through the
// center with effective bridge length 2^i.
//
// Like the Cluster scheduler, each period runs either the greedy schedule
// (Approach 1) or randomized activation rounds (Approach 2, Algorithm 1
// with segments in place of clusters, enabled transactions sweeping their
// segment center-outward); Auto builds both full schedules and keeps the
// shorter, realizing Theorem 5's O(log β · min(kβ, c^k ln^k m)) factor.
type Star struct {
	// Topo is the star topology the instance lives on.
	Topo *topology.Star
	// Rng drives Approach 2's random activations.
	Rng *rand.Rand
	// Approach selects the per-period algorithm (default auto).
	Approach ClusterApproach
}

// Name implements Scheduler.
func (st *Star) Name() string {
	switch st.Approach {
	case ClusterApproach1:
		return "star/approach1"
	case ClusterApproach2:
		return "star/approach2"
	default:
		return "star/auto"
	}
}

// Schedule implements Scheduler.
func (st *Star) Schedule(in *tm.Instance) (*Result, error) { return Checked(st, in) }

// ScheduleUnchecked implements Unchecked.
func (st *Star) ScheduleUnchecked(in *tm.Instance) (*Result, error) {
	if st.Topo == nil {
		return nil, fmt.Errorf("core: star scheduler needs its topology")
	}
	if in.G != st.Topo.Graph() {
		return nil, fmt.Errorf("core: instance graph is not the scheduler's star")
	}
	switch st.Approach {
	case ClusterApproach1:
		return st.run(in, false)
	case ClusterApproach2:
		return st.run(in, true)
	default:
		r1, err := st.run(in, false)
		if err != nil {
			return nil, err
		}
		r2, err := st.run(in, true)
		if err != nil {
			return nil, err
		}
		if r2.Makespan < r1.Makespan {
			r2.Stats["picked"] = 2
			return r2, nil
		}
		r1.Stats["picked"] = 1
		return r1, nil
	}
}

func (st *Star) run(in *tm.Instance, randomized bool) (*Result, error) {
	if randomized && st.Rng == nil {
		return nil, fmt.Errorf("core: star approach 2 needs an Rng")
	}
	c := newComposer(in)
	var totalRounds, fallbacks int64

	name := "star/approach1"
	if randomized {
		name = "star/approach2"
	}
	r := &Result{Algorithm: name, Stats: map[string]int64{}}

	// The center's transaction executes first.
	if txn := in.TxnAt(st.Topo.Center()); txn != nil {
		c.appendOne(txn.ID)
	}

	eta := st.Topo.NumSegments()
	for i := 1; i <= eta; i++ {
		segs := st.Topo.Segments(i)
		if len(segs) == 0 {
			continue
		}
		// Collect pending transactions per segment (keyed by ray).
		bySeg := make([][]tm.TxnID, len(segs))
		var all []tm.TxnID
		for s, seg := range segs {
			for _, v := range seg.Nodes(st.Topo) {
				if txn := in.TxnAt(v); txn != nil && !c.done[txn.ID] {
					bySeg[s] = append(bySeg[s], txn.ID)
					all = append(all, txn.ID)
				}
			}
		}
		if len(all) == 0 {
			continue
		}
		if !randomized {
			times, sum := depgraph.Color(in, all, in.Index())
			c.appendBatch(all, times)
			sum.AddStats(r.Stats)
			continue
		}
		rounds, fb := st.randomizedPeriod(in, c, segs, bySeg)
		totalRounds += rounds
		fallbacks += fb
	}

	r.Schedule = c.finish()
	r.Makespan = r.Schedule.Makespan()
	r.Stats["eta"] = int64(eta)
	r.Stats["rounds"] = totalRounds
	r.Stats["fallbacks"] = fallbacks
	return r, nil
}

// randomizedPeriod runs Algorithm 1 style rounds over the segments of one
// period: each object wanted by pending transactions of several segments
// activates in one uniformly random such segment; a pending transaction is
// enabled when all of its objects activated in its own segment, and
// enabled transactions sweep their segment center-outward (consecutive
// positions execute on consecutive steps, so two enabled transactions in
// one segment sharing an object are separated by at least their distance).
func (st *Star) randomizedPeriod(in *tm.Instance, c *composer, segs []topology.Segment, bySeg [][]tm.TxnID) (rounds, fallbacks int64) {
	pendingCount := 0
	segOf := make(map[tm.TxnID]int)
	for s := range bySeg {
		pendingCount += len(bySeg[s])
		for _, id := range bySeg[s] {
			segOf[id] = s
		}
	}
	n := in.G.NumNodes()
	m := maxInt(maxInt(n, in.NumObjects), 2)
	k := maxInt(in.MaxK(), 1)
	zeta := roundCap(k, math.Log(float64(m)))

	const stallLimit = 5000
	stall := 0
	for round := int64(0); pendingCount > 0 && round < zeta && stall < stallLimit; round++ {
		rounds++
		active := make(map[tm.ObjectID]int)
		index := in.Index()
		for o := 0; o < in.NumObjects; o++ {
			var choices []int
			seen := make(map[int]bool)
			for _, id := range index.Members(tm.ObjectID(o)) {
				if s, ok := segOf[id]; ok && !c.done[id] && !seen[s] {
					seen[s] = true
					choices = append(choices, s)
				}
			}
			if len(choices) > 0 {
				sort.Ints(choices)
				active[tm.ObjectID(o)] = choices[cPick(st.Rng, len(choices))]
			}
		}
		var ids []tm.TxnID
		var local []int64
		for s := range bySeg {
			var still []tm.TxnID
			for _, id := range bySeg[s] {
				enabled := true
				for _, o := range in.Txns[id].Objects {
					if a, ok := active[o]; !ok || a != s {
						enabled = false
						break
					}
				}
				if enabled {
					// Local time = 1-based offset of the node within its
					// segment, sweeping center-outward.
					_, pos := st.Topo.RayOf(in.Txns[id].Node)
					ids = append(ids, id)
					local = append(local, int64(pos-segs[s].Lo+1))
					pendingCount--
					delete(segOf, id)
				} else {
					still = append(still, id)
				}
			}
			bySeg[s] = still
		}
		if len(ids) > 0 {
			c.appendBatch(ids, local)
			stall = 0
		} else {
			stall++
		}
	}
	for s := range bySeg {
		for _, id := range bySeg[s] {
			fallbacks++
			c.appendOne(id)
		}
		bySeg[s] = nil
	}
	return rounds, fallbacks
}

func cPick(r *rand.Rand, n int) int { return r.Intn(n) }
