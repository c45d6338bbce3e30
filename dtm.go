// Package dtmsched is the public API of dtmsched, a library of provably fast
// transaction schedulers for distributed transactional memory in the
// data-flow model, reproducing "Fast Scheduling in Distributed
// Transactional Memory" (Busch, Herlihy, Popovic, Sharma; SPAA 2017).
//
// A System couples a communication topology with a batch of transactions
// (one per node) over mobile shared objects. Run applies a scheduling
// algorithm, verifies the resulting schedule against the synchronous
// simulator, computes the instance's certified execution-time lower bound,
// and reports the approximation ratio.
//
// Quickstart:
//
//	sys := dtmsched.NewCliqueSystem(64, dtmsched.Uniform(16, 2), dtmsched.Seed(1))
//	rep, err := sys.Run(dtmsched.AlgGreedy)
//	// rep.Makespan, rep.LowerBound, rep.Ratio, rep.CommCost …
package dtmsched

import (
	"context"
	"fmt"
	"math/rand"

	"dtmsched/internal/baseline"
	"dtmsched/internal/core"
	"dtmsched/internal/engine"
	"dtmsched/internal/graph"
	"dtmsched/internal/hier"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// Re-exported identifier types.
type (
	// NodeID identifies a node of the communication graph.
	NodeID = graph.NodeID
	// ObjectID identifies a shared object.
	ObjectID = tm.ObjectID
	// TxnID identifies a transaction.
	TxnID = tm.TxnID
)

// Algorithm names an available scheduling algorithm.
type Algorithm string

// Available algorithms.
const (
	// AlgAuto picks the paper's scheduler matching the system topology.
	AlgAuto Algorithm = "auto"
	// AlgGreedy is the Section 2.3 greedy dependency-graph coloring
	// schedule (Theorem 1 on cliques; Section 3.1 elsewhere).
	AlgGreedy Algorithm = "greedy"
	// AlgLine is the Section 4 two-phase line schedule.
	AlgLine Algorithm = "line"
	// AlgGrid is the Section 5 subgrid column-major schedule.
	AlgGrid Algorithm = "grid"
	// AlgCluster is Theorem 4's min of the two cluster approaches.
	AlgCluster Algorithm = "cluster"
	// AlgClusterGreedy forces cluster Approach 1.
	AlgClusterGreedy Algorithm = "cluster1"
	// AlgClusterRandom forces cluster Approach 2 (Algorithm 1).
	AlgClusterRandom Algorithm = "cluster2"
	// AlgStar is the Section 7 segment/period star schedule.
	AlgStar Algorithm = "star"
	// AlgStarGreedy forces star Approach 1 per period.
	AlgStarGreedy Algorithm = "star1"
	// AlgStarRandom forces star Approach 2 per period.
	AlgStarRandom Algorithm = "star2"
	// AlgHier is the hierarchical fog–cloud scheduler: subtree-sharded
	// local scheduling plus a top-level cross-tier merge pass (the
	// poly-log fog–cloud extension; requires a fog–cloud topology).
	AlgHier Algorithm = "hier"
	// AlgSequential is the global-lock baseline.
	AlgSequential Algorithm = "sequential"
	// AlgList is the FIFO list-scheduling baseline.
	AlgList Algorithm = "list"
	// AlgRandomOrder is the random-priority list-scheduling baseline.
	AlgRandomOrder Algorithm = "random"
)

// Algorithms lists every selectable algorithm name.
func Algorithms() []Algorithm {
	return []Algorithm{AlgAuto, AlgGreedy, AlgLine, AlgGrid, AlgCluster,
		AlgClusterGreedy, AlgClusterRandom, AlgStar, AlgStarGreedy,
		AlgStarRandom, AlgHier, AlgSequential, AlgList, AlgRandomOrder}
}

// Workload describes how transactions pick their object sets; construct
// one with Uniform, Zipf, Hotspot, SingleObject, Localized, or
// WrapWorkload.
type Workload struct {
	w tm.Workload
	// build defers resolution to system construction for workloads whose
	// shape depends on the topology (Localized's fog-subtree groups).
	build func(topology.Topology) (tm.Workload, error)
}

// Uniform gives every transaction a uniformly random k-subset of w objects
// (the Grid problem's input model).
func Uniform(w, k int) Workload { return Workload{w: tm.UniformK(w, k)} }

// Zipf skews object popularity (hot objects requested far more often).
func Zipf(w, k int) Workload { return Workload{w: tm.ZipfK(w, k)} }

// Hotspot makes all transactions share object 0 plus k−1 uniform others.
func Hotspot(w, k int) Workload { return Workload{w: tm.HotspotK(w, k)} }

// SingleObject is the classic one-shared-object workload of earlier
// data-flow literature.
func SingleObject() Workload { return Workload{w: tm.SingleObject()} }

// WrapWorkload adapts a raw internal workload — e.g. tm.LocalizedK,
// whose subtree groups are derived from a fog–cloud topology — for the
// System constructors. Like System.Instance, this is an advanced-use
// escape hatch into the internal model.
func WrapWorkload(w tm.Workload) Workload { return Workload{w: w} }

// Localized interpolates between fully subtree-local and uniform object
// draws on a fog–cloud system: each of a transaction's k picks stays
// inside its node's fog-subtree object group with probability locality,
// and is uniform over all w objects otherwise. Valid only with
// NewFogCloudSystem (whose fog tier defines the groups); construction
// panics on any other topology, mirroring the other workloads'
// invalid-parameter panics.
func Localized(w, k int, locality float64) Workload {
	return Workload{build: func(topo topology.Topology) (tm.Workload, error) {
		fc, ok := topo.(*topology.FogCloud)
		if !ok {
			return tm.Workload{}, fmt.Errorf("dtm: the Localized workload needs a fog–cloud system, not %s", topo.Kind())
		}
		groups := fc.TierSize(1)
		if w%groups != 0 {
			return tm.Workload{}, fmt.Errorf("dtm: Localized w=%d not divisible by the %d fog subtrees", w, groups)
		}
		return tm.LocalizedK(w, k, groups, locality, func(node graph.NodeID) int {
			if fc.TierOf(node) < 1 {
				return -1 // the cloud root draws uniformly
			}
			return int(fc.Ancestor(node, 1)) - int(fc.TierStart(1))
		}), nil
	}}
}

// Options configures system construction.
type Options struct {
	// Seed roots every random choice (workload, placement, randomized
	// schedulers). The default is xrand.DefaultSeed.
	Seed int64
	// Placement picks initial object homes; default places each object
	// at a random requester, per the paper.
	Placement tm.Placement
	// Precompute forces the all-pairs distance matrix for graph-backed
	// metrics regardless of size. When false (default), the matrix is
	// still installed automatically for topologies whose metric falls
	// back to graph shortest paths (butterfly) when the graph has at
	// most tm.AutoPrecomputeNodes nodes.
	Precompute bool
	// HierTier selects the hierarchical scheduler's shard tier on
	// fog–cloud systems (0 picks the fog tier, tier 1).
	HierTier int
	// HierWorkers bounds the hierarchical scheduler's shard worker pool
	// (0 picks GOMAXPROCS). Schedules are byte-identical at every value.
	HierWorkers int
}

// Option mutates Options.
type Option func(*Options)

// Seed sets the root seed.
func Seed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// PlaceFirstUser homes each object deterministically at its lowest-ID
// requester.
func PlaceFirstUser() Option {
	return func(o *Options) { o.Placement = tm.PlaceAtFirstUser }
}

// PlaceRandomNode homes each object at a uniformly random node (not
// necessarily a requester).
func PlaceRandomNode() Option {
	return func(o *Options) { o.Placement = tm.PlaceRandom }
}

// PrecomputeDistances forces the system's distance oracle onto the
// precomputed all-pairs matrix (Θ(n²) memory, O(1) zero-alloc lookups)
// even above the automatic size threshold. It only applies to topologies
// whose metric is graph-backed; closed-form metrics are already O(1).
func PrecomputeDistances() Option {
	return func(o *Options) { o.Precompute = true }
}

// HierTier selects the shard tier of the hierarchical scheduler on
// fog–cloud systems: subtrees rooted at that tier schedule their local
// conflicts independently. The default (tier 1) shards by the fog tier.
func HierTier(tier int) Option {
	return func(o *Options) { o.HierTier = tier }
}

// HierShardWorkers bounds the hierarchical scheduler's parallel shard
// pool. The schedule is byte-identical at every worker count; the knob
// only trades wall time.
func HierShardWorkers(n int) Option {
	return func(o *Options) { o.HierWorkers = n }
}

// System is a topology plus a generated problem instance, ready to
// schedule.
type System struct {
	topo        topology.Topology
	in          *tm.Instance
	seed        int64
	hierTier    int
	hierWorkers int
}

func newSystem(topo topology.Topology, w Workload, opts []Option) *System {
	o := Options{Seed: xrand.DefaultSeed, Placement: tm.PlaceAtRandomUser}
	for _, fn := range opts {
		fn(&o)
	}
	g := topo.Graph()
	rng := xrand.NewDerived(o.Seed, "workload", g.Name())
	// Topologies without a closed-form metric delegate to graph shortest
	// paths; hand the graph out directly so the instance can see (and
	// precompute) the real oracle instead of an opaque closure.
	var metric graph.Metric = graph.FuncMetric(topo.Dist)
	if topology.MetricFallsBackToGraph(topo) {
		metric = g
	}
	wk := w.w
	if w.build != nil {
		var err error
		if wk, err = w.build(topo); err != nil {
			panic(err)
		}
	}
	in := wk.Generate(rng, g, metric, g.Nodes(), o.Placement)
	if o.Precompute {
		in.PrecomputeDist(0)
	} else {
		in.PrecomputeDistAuto(0)
	}
	return &System{topo: topo, in: in, seed: o.Seed, hierTier: o.HierTier, hierWorkers: o.HierWorkers}
}

// NewCliqueSystem builds a system on the complete graph K_n.
func NewCliqueSystem(n int, w Workload, opts ...Option) *System {
	return newSystem(topology.NewClique(n), w, opts)
}

// NewLineSystem builds a system on the n-node line.
func NewLineSystem(n int, w Workload, opts ...Option) *System {
	return newSystem(topology.NewLine(n), w, opts)
}

// NewGridSystem builds a system on the side×side grid.
func NewGridSystem(side int, w Workload, opts ...Option) *System {
	return newSystem(topology.NewSquareGrid(side), w, opts)
}

// NewHypercubeSystem builds a system on the dim-dimensional hypercube.
func NewHypercubeSystem(dim int, w Workload, opts ...Option) *System {
	return newSystem(topology.NewHypercube(dim), w, opts)
}

// NewButterflySystem builds a system on the dim-dimensional butterfly.
func NewButterflySystem(dim int, w Workload, opts ...Option) *System {
	return newSystem(topology.NewButterfly(dim), w, opts)
}

// NewClusterSystem builds a system on α cliques of β nodes with bridge
// weight γ.
func NewClusterSystem(alpha, beta int, gamma int64, w Workload, opts ...Option) *System {
	return newSystem(topology.NewCluster(alpha, beta, gamma), w, opts)
}

// NewStarSystem builds a system on a star of α rays × β nodes.
func NewStarSystem(alpha, beta int, w Workload, opts ...Option) *System {
	return newSystem(topology.NewStar(alpha, beta), w, opts)
}

// NewTorusSystem builds a system on the rows×cols torus (extension
// topology; the grid scheduler applies).
func NewTorusSystem(rows, cols int, w Workload, opts ...Option) *System {
	return newSystem(topology.NewTorus(rows, cols), w, opts)
}

// NewRingSystem builds a system on the n-node cycle (bus/token-ring
// architectures; extension topology, scheduled greedily).
func NewRingSystem(n int, w Workload, opts ...Option) *System {
	return newSystem(topology.NewRing(n), w, opts)
}

// NewTreeSystem builds a system on the complete b-ary tree of the given
// depth (hierarchical datacenters; extension topology, scheduled
// greedily with the O(k·ℓ·d) diameter bound).
func NewTreeSystem(branching, depth int, w Workload, opts ...Option) *System {
	return newSystem(topology.NewBTree(branching, depth), w, opts)
}

// NewMultiGridSystem builds a system on the d-dimensional mesh with the
// given per-dimension sizes (Section 3.1's log n-dimensional grids).
func NewMultiGridSystem(dims []int, w Workload, opts ...Option) *System {
	return newSystem(topology.NewMultiGrid(dims...), w, opts)
}

// NewFogCloudSystem builds a system on the hierarchical edge–fog–cloud
// tree: tier t nodes have fanout[t] children each, reached over links of
// weight linkWeights[t] (the fog–cloud extension topology, scheduled
// hierarchically by subtree shards).
func NewFogCloudSystem(fanout []int, linkWeights []int64, w Workload, opts ...Option) *System {
	return newSystem(topology.NewFogCloud(fanout, linkWeights), w, opts)
}

// Topology returns the system's topology kind name.
func (s *System) Topology() string { return s.topo.Kind().String() }

// NumNodes returns the node count.
func (s *System) NumNodes() int { return s.in.G.NumNodes() }

// NumTxns returns the transaction count.
func (s *System) NumTxns() int { return s.in.NumTxns() }

// NumObjects returns w.
func (s *System) NumObjects() int { return s.in.NumObjects }

// Instance exposes the underlying problem instance for advanced use
// (custom schedulers, direct simulator access).
func (s *System) Instance() *tm.Instance { return s.in }

// Report is the outcome of running one algorithm on a system.
type Report struct {
	// Algorithm is the concrete algorithm that ran (e.g.
	// "cluster/approach2" when AlgCluster picked Approach 2).
	Algorithm string
	// Topology names the topology family.
	Topology string
	// Makespan is the schedule's execution time (Definition 1).
	Makespan int64
	// LowerBound is the instance's certified optimal-makespan lower
	// bound; Ratio = Makespan / LowerBound overestimates the true
	// approximation ratio.
	LowerBound int64
	// Ratio is Makespan / LowerBound.
	Ratio float64
	// CommCost is the total distance traveled by all objects, as
	// measured by the simulator.
	CommCost int64
	// MaxUse is ℓ, MaxWalk the longest shortest object walk (lower
	// bound side).
	MaxUse  int
	MaxWalk int64
	// Stats carries algorithm-specific counters.
	Stats map[string]int64
	// Schedule is the schedule the report measures: Schedule.Times[i] is
	// transaction i's commit step.
	Schedule *schedule.Schedule
	// Verify is the verification policy the report was produced under.
	Verify VerifyMode
	// Timing is the run pipeline's per-stage wall-time instrumentation.
	Timing Timing
	// Counters carries the simulator counters (VerifyFull runs only).
	Counters Counters
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%-20s on %-10s makespan=%-7d lb=%-6d ratio=%.2f comm=%d",
		r.Algorithm, r.Topology, r.Makespan, r.LowerBound, r.Ratio, r.CommCost)
}

// Run schedules the system with the chosen algorithm, verifies the
// schedule in the synchronous simulator, and reports makespan,
// communication cost, and the approximation ratio against the certified
// lower bound. It is RunContext with a background context and full
// verification.
func (s *System) Run(alg Algorithm) (*Report, error) {
	return s.RunContext(context.Background(), alg, VerifyFull)
}

// RunContext runs one algorithm through the staged engine pipeline
// (Generate → Schedule → Verify → Measure) with the given cancellation
// context and verification policy. The returned report carries per-stage
// timings and, under VerifyFull, the simulator's counters.
func (s *System) RunContext(ctx context.Context, alg Algorithm, verify VerifyMode) (*Report, error) {
	sched, err := s.scheduler(alg)
	if err != nil {
		return nil, err
	}
	rep, err := engine.Run(ctx, engine.Job{
		Name:      string(alg),
		Instance:  s.in,
		Scheduler: sched,
		Verify:    verify,
	})
	if err != nil {
		return nil, err
	}
	return s.report(rep), nil
}

// report converts an engine report into the facade's Report shape.
func (s *System) report(rep *engine.Report) *Report {
	return &Report{
		Algorithm:  rep.Algorithm,
		Topology:   s.Topology(),
		Makespan:   rep.Makespan,
		LowerBound: rep.Bound.Value,
		Ratio:      rep.Ratio,
		CommCost:   rep.CommCost,
		MaxUse:     rep.Bound.MaxUse,
		MaxWalk:    rep.Bound.MaxWalkLB,
		Stats:      rep.Stats,
		Schedule:   rep.Schedule,
		Verify:     rep.Verify,
		Timing:     rep.Timing,
		Counters:   rep.Counters,
	}
}

// scheduler resolves an Algorithm name against the system's topology.
func (s *System) scheduler(alg Algorithm) (core.Scheduler, error) {
	rng := func(tag string) *rand.Rand { return xrand.NewDerived(s.seed, "alg", tag) }
	if alg == AlgAuto {
		switch t := s.topo.(type) {
		case *topology.Line:
			return &core.Line{Topo: t}, nil
		case *topology.Grid:
			return &core.Grid{Topo: t}, nil
		case *topology.ClusterGraph:
			return &core.Cluster{Topo: t, Rng: rng("cluster")}, nil
		case *topology.Star:
			return &core.Star{Topo: t, Rng: rng("star")}, nil
		case *topology.FogCloud:
			return &hier.Scheduler{Topo: t, Tier: s.hierTier, Workers: s.hierWorkers}, nil
		default:
			return &core.Greedy{}, nil
		}
	}
	switch alg {
	case AlgGreedy:
		return &core.Greedy{}, nil
	case AlgLine:
		t, ok := s.topo.(*topology.Line)
		if !ok {
			return nil, fmt.Errorf("dtm: %s requires a line topology, have %s", alg, s.Topology())
		}
		return &core.Line{Topo: t}, nil
	case AlgGrid:
		t, ok := s.topo.(*topology.Grid)
		if !ok {
			return nil, fmt.Errorf("dtm: %s requires a grid topology, have %s", alg, s.Topology())
		}
		return &core.Grid{Topo: t}, nil
	case AlgCluster, AlgClusterGreedy, AlgClusterRandom:
		t, ok := s.topo.(*topology.ClusterGraph)
		if !ok {
			return nil, fmt.Errorf("dtm: %s requires a cluster topology, have %s", alg, s.Topology())
		}
		ap := core.ClusterAuto
		if alg == AlgClusterGreedy {
			ap = core.ClusterApproach1
		} else if alg == AlgClusterRandom {
			ap = core.ClusterApproach2
		}
		return &core.Cluster{Topo: t, Rng: rng("cluster"), Approach: ap}, nil
	case AlgStar, AlgStarGreedy, AlgStarRandom:
		t, ok := s.topo.(*topology.Star)
		if !ok {
			return nil, fmt.Errorf("dtm: %s requires a star topology, have %s", alg, s.Topology())
		}
		ap := core.ClusterAuto
		if alg == AlgStarGreedy {
			ap = core.ClusterApproach1
		} else if alg == AlgStarRandom {
			ap = core.ClusterApproach2
		}
		return &core.Star{Topo: t, Rng: rng("star"), Approach: ap}, nil
	case AlgHier:
		t, ok := s.topo.(*topology.FogCloud)
		if !ok {
			return nil, fmt.Errorf("dtm: %s requires a fogcloud topology, have %s", alg, s.Topology())
		}
		return &hier.Scheduler{Topo: t, Tier: s.hierTier, Workers: s.hierWorkers}, nil
	case AlgSequential:
		return baseline.Sequential{}, nil
	case AlgList:
		return baseline.List{}, nil
	case AlgRandomOrder:
		return baseline.Random{Rng: rng("baseline")}, nil
	default:
		return nil, fmt.Errorf("dtm: unknown algorithm %q", alg)
	}
}
