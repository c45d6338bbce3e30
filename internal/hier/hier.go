package hier

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dtmsched/internal/core"
	"dtmsched/internal/depgraph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
)

// Scheduler is the hierarchical fog–cloud scheduler. It implements
// core.Scheduler over instances generated on a topology.FogCloud tree.
//
// The schedule is built in two phases. The local phase decomposes the
// instance at the shard tier and schedules each subtree's local
// transactions independently: each shard's dependency graph is greedily
// colored straight from that shard's tm.ShardView of the conflict index
// and shifted by the exact per-shard offset that lets every local object
// reach its first requester from its home. Shards own disjoint node and
// object sets, so their sub-schedules overlap in time instead of
// serializing. The merge phase then schedules the cross-tier transactions:
// one dependency graph over the cross set (whose conflicts — cross–cross on
// any shared object — are exactly the cross member groups of the
// partitioned index), colored and shifted by the single offset that
// respects every release point the local phase left behind.
type Scheduler struct {
	// Topo is the fog–cloud tree the instance was generated on. Required.
	Topo *topology.FogCloud
	// Tier is the shard tier: subtrees rooted at tier Tier become shards.
	// 0 picks tier 1 (the fog tier, one shard per cloud child); explicit
	// values must lie in [1, Topo.Tiers()).
	Tier int
	// Workers bounds the local phase's shard worker pool: 0 picks
	// GOMAXPROCS, 1 forces serial. The schedule is byte-identical at every
	// worker count — shards compute into private slots and write disjoint
	// transaction and object entries.
	Workers int
}

// Name implements core.Scheduler.
func (s *Scheduler) Name() string { return "hier" }

// shardOut is one shard's private result slot.
type shardOut struct {
	graph *depgraph.Summary // nil when the shard colored no graph
	span  int64             // completion step of the shard's sub-schedule
}

// Schedule implements core.Scheduler.
func (s *Scheduler) Schedule(in *tm.Instance) (*core.Result, error) { return core.Checked(s, in) }

// ScheduleUnchecked implements core.Unchecked; it keeps the decomposition's
// cross-check, which Definition 1 does not cover.
func (s *Scheduler) ScheduleUnchecked(in *tm.Instance) (*core.Result, error) {
	if s.Topo == nil {
		return nil, errors.New("hier: scheduler needs its fog–cloud topology")
	}
	tier := s.Tier
	if tier == 0 {
		tier = 1
	}
	if tier < 1 || tier >= s.Topo.Tiers() {
		return nil, fmt.Errorf("hier: shard tier %d outside [1, %d)", tier, s.Topo.Tiers())
	}
	d := Decompose(s.Topo, in, tier)
	pv := in.Index().Partition(d.Shards+1, d.TxnShard)

	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > d.Shards {
		workers = d.Shards
	}
	if workers < 1 {
		workers = 1
	}

	sched := schedule.New(in.NumTxns())
	// Release points after the local phase. Each object and node is
	// touched by at most one shard (locality invariant), so shard workers
	// write disjoint chain entries.
	chain := schedule.NewChain(in.Metric, in.Home, in.G.NumNodes())

	outs := make([]shardOut, d.Shards)
	shardStart := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				si := int(next.Add(1)) - 1
				if si >= d.Shards {
					return
				}
				scheduleShard(in, d, pv, si, sched, &outs[si], chain)
			}
		}()
	}
	wg.Wait()
	shardWall := time.Since(shardStart)

	// Merge phase: cross-tier transactions after the local release points.
	mergeStart := time.Now()
	var mergeOut shardOut
	if len(d.Cross) > 0 {
		local, sum := depgraph.Color(in, d.Cross, pv.View(d.Shards))
		delta := chain.Offset(in, d.Cross, local, 0)
		for i, id := range d.Cross {
			sched.Times[id] = local[i] + delta
			if t := sched.Times[id]; t > mergeOut.span {
				mergeOut.span = t
			}
		}
		mergeOut.graph = &sum
	}
	mergeWall := time.Since(mergeStart)

	r := &core.Result{
		Schedule:  sched,
		Makespan:  sched.Makespan(),
		Algorithm: s.Name(),
		Stats:     map[string]int64{},
	}
	var localSpan int64
	for si := range outs {
		if outs[si].span > localSpan {
			localSpan = outs[si].span
		}
	}
	r.Stats["hier_shards"] = int64(d.Shards)
	r.Stats["hier_tier"] = int64(d.Tier)
	r.Stats["hier_local_txns"] = int64(d.LocalTxns())
	r.Stats["hier_cross_txns"] = int64(len(d.Cross))
	r.Stats["hier_cross_objects"] = int64(d.CrossObjects)
	r.Stats["hier_max_shard_txns"] = int64(d.MaxShardTxns())
	r.Stats["hier_local_span"] = localSpan
	r.Stats["hier_merge_span"] = mergeOut.span
	// Wall-clock keys are the only nondeterministic stats; the engine moves
	// them into Timing (like depgraph_build_ns) so Report.Stats stays
	// byte-identical at every worker count.
	r.Stats["hier_shard_wall_ns"] = int64(shardWall)
	r.Stats["hier_merge_wall_ns"] = int64(mergeWall)
	// Conflict-graph build accounting, accumulated in shard order (the
	// depgraph_* keys the engine and observability layers read).
	for _, out := range append(outs, mergeOut) {
		if out.graph != nil {
			out.graph.AddStats(r.Stats)
		}
	}

	if err := CrossCheck(d, in); err != nil {
		return nil, fmt.Errorf("hier: decomposition fails the cross-check: %w", err)
	}
	return r, nil
}

// scheduleShard schedules shard si's local transactions into sched and
// advances the chain entries of the shard's (private) objects and nodes.
func scheduleShard(in *tm.Instance, d *Decomposition, pv *tm.PartitionedView, si int,
	sched *schedule.Schedule, out *shardOut, chain *schedule.Chain) {
	ids := d.Local[si]
	if len(ids) == 0 {
		return
	}
	local, sum := depgraph.Color(in, ids, pv.View(si))

	// Exact home-travel offset: every local object must reach its first
	// requester from its home. Local objects are shard-private, so shards
	// shift independently and overlap in global time.
	delta := chain.Offset(in, ids, local, 0)
	for i, id := range ids {
		t := local[i] + delta
		sched.Times[id] = t
		if t > out.span {
			out.span = t
		}
		chain.Commit(in.Txns[id].Node, in.Txns[id].Objects, t)
	}
	out.graph = &sum
}
