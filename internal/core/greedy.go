package core

import (
	"math/rand"
	"sort"
	"time"

	"dtmsched/internal/depgraph"
	"dtmsched/internal/tm"
)

// GreedyOrder selects the order in which the greedy schedule colors the
// dependency graph. The Γ+1 bound of Section 2.3 holds for every order;
// the order only affects the constant (experiment E15 quantifies it).
type GreedyOrder int

// Coloring orders.
const (
	// OrderNode colors transactions by ascending node ID (the
	// deterministic default).
	OrderNode GreedyOrder = iota
	// OrderDegree colors highest-degree transactions first
	// (Welsh–Powell), typically using fewer colors on skewed conflict
	// graphs.
	OrderDegree
	// OrderRandom shuffles with the scheduler's Rng.
	OrderRandom
)

// Greedy is the basic greedy schedule of Section 2.3: color the weighted
// transaction dependency graph H with at most Γ+1 = h_max·Δ+1 colors and
// execute each transaction at its color's time step, shifted just enough
// for objects to reach their first requesters from their homes.
//
// Applied to the complete graph it realizes Theorem 1's O(k) approximation;
// on the hypercube and butterfly it realizes the O(k log n) bounds of
// Section 3.1, and on any diameter-d graph the O(k·ℓ·d) schedule.
type Greedy struct {
	// Order selects the coloring order (default OrderNode).
	Order GreedyOrder
	// Rng drives OrderRandom.
	//
	// Backward-compatibility contract (pinned by
	// TestGreedyRngImpliesShuffle): a non-nil Rng with the zero-value
	// Order (OrderNode) is treated as an implicit request for a shuffled
	// order, exactly as if Order were OrderRandom — early callers asked
	// for randomization by setting only this field. Callers that want the
	// deterministic node order must leave Rng nil.
	Rng *rand.Rand
}

// Name implements Scheduler.
func (g *Greedy) Name() string { return "greedy" }

// Schedule implements Scheduler.
func (g *Greedy) Schedule(in *tm.Instance) (*Result, error) { return Checked(g, in) }

// ScheduleUnchecked implements Unchecked.
func (g *Greedy) ScheduleUnchecked(in *tm.Instance) (*Result, error) {
	start := time.Now()
	h := depgraph.New(in, nil, in.Index())
	sum := h.Summarize()
	order := h.OrderByNode()
	switch {
	case g.Order == OrderDegree:
		sort.SliceStable(order, func(a, b int) bool {
			return sum.Degree[order[a]] > sum.Degree[order[b]]
		})
	case g.Order == OrderRandom || (g.Order == OrderNode && g.Rng != nil):
		if g.Rng == nil {
			return nil, errNoRng
		}
		g.Rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	local := sum.Times(h.Ranks(order))
	sum.Duration = time.Since(start)

	c := newComposer(in)
	c.appendBatch(h.IDs, local)
	r := newResult(g.Name(), c.finish())
	r.Stats["hmax"] = sum.HMax
	r.Stats["maxdeg"] = int64(sum.MaxDegree)
	r.Stats["gamma"] = sum.WeightedDegree()
	r.Stats["colors"] = maxOf(local)
	sum.AddStats(r.Stats)
	return r, nil
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
