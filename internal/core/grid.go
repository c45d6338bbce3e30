package core

import (
	"fmt"
	"math"

	"dtmsched/internal/depgraph"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
)

// Grid is the Section 5 schedule for the n×n grid with uniformly random
// k-subsets of w objects. Let m = max(n, w) and ξ = 27·w·ln(m)/k. The grid
// is decomposed into √ξ×√ξ subgrids executed one at a time in boustrophedon
// column-major order (Figure 2); each subgrid runs the greedy schedule of
// Section 2.3 internally, and objects migrate to the next requesting
// subgrid between internal schedules. With high probability the result is
// an O(k·log m) approximation (Theorem 3).
type Grid struct {
	// Topo is the grid topology the instance lives on.
	Topo *topology.Grid
	// SideOverride forces the subgrid side length (0 = the paper's √ξ).
	// Ablation experiments use it to probe sensitivity to tile size.
	SideOverride int
}

// Name implements Scheduler.
func (g *Grid) Name() string { return "grid" }

// Side returns the subgrid side the algorithm would use for an instance:
// ⌈√ξ⌉ with ξ = 27·w·ln(m)/k, clamped to [1, grid side].
func (g *Grid) Side(in *tm.Instance) int {
	if g.SideOverride > 0 {
		return g.SideOverride
	}
	n := g.Topo.Rows()
	if c := g.Topo.Cols(); c > n {
		n = c
	}
	w := in.NumObjects
	k := in.MaxK()
	if k < 1 {
		k = 1
	}
	m := n
	if w > m {
		m = w
	}
	xi := 27 * float64(w) * math.Log(float64(maxInt(m, 2))) / float64(k)
	side := int(math.Ceil(math.Sqrt(xi)))
	if side < 1 {
		side = 1
	}
	if side > n {
		side = n
	}
	return side
}

// Schedule implements Scheduler.
func (g *Grid) Schedule(in *tm.Instance) (*Result, error) { return Checked(g, in) }

// ScheduleUnchecked implements Unchecked.
func (g *Grid) ScheduleUnchecked(in *tm.Instance) (*Result, error) {
	if g.Topo == nil {
		return nil, fmt.Errorf("core: grid scheduler needs its topology")
	}
	if in.G != g.Topo.Graph() {
		return nil, fmt.Errorf("core: instance graph is not the scheduler's grid")
	}
	side := g.Side(in)
	tiles := topology.SnakeOrder(g.Topo.Decompose(side))

	c := newComposer(in)
	r := &Result{Algorithm: g.Name(), Stats: map[string]int64{}}
	var internalSteps, tilesUsed int64
	for _, tile := range tiles {
		var ids []tm.TxnID
		for _, v := range tile.Nodes(g.Topo) {
			if txn := in.TxnAt(v); txn != nil {
				ids = append(ids, txn.ID)
			}
		}
		if len(ids) == 0 {
			continue
		}
		local, sum := depgraph.Color(in, ids, in.Index())
		before := c.clock
		c.appendBatch(ids, local)
		internalSteps += c.clock - before
		tilesUsed++
		sum.AddStats(r.Stats)
	}
	r.Schedule = c.finish()
	r.Makespan = r.Schedule.Makespan()
	r.Stats["side"] = int64(side)
	r.Stats["tiles"] = tilesUsed
	r.Stats["internal_steps"] = internalSteps
	return r, nil
}
