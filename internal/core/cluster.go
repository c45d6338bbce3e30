package core

import (
	"fmt"
	"math"
	"math/rand"

	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
)

// ClusterApproach selects between Section 6's two algorithms.
type ClusterApproach int

// Approaches.
const (
	// ClusterAuto runs both approaches and keeps the shorter schedule,
	// realizing Theorem 4's O(min(kβ, 40^k ln^k m)) factor.
	ClusterAuto ClusterApproach = iota
	// ClusterApproach1 is the plain greedy schedule (Lemma 6).
	ClusterApproach1
	// ClusterApproach2 is the randomized phase/round Algorithm 1
	// (Lemma 9).
	ClusterApproach2
)

// Cluster schedules transactions on the Section 6 cluster graph: α cliques
// of β nodes joined by bridge edges of weight γ ≥ β.
//
// Approach 1 applies the basic greedy schedule to the whole graph.
// Approach 2 (Algorithm 1) assigns clusters to ψ = ⌈σ/(24·ln m)⌉ random
// phases; within a phase, rounds repeat in which every live object
// activates in one uniformly random phase-cluster that still wants it, the
// transactions whose objects all activated locally become enabled, and
// enabled transactions execute cluster-locally.
//
// Approach 2's rounds are the activation round Star's randomized periods
// share (activation). Its departures from Algorithm 1's accounting, not
// from its algorithm, are listed once for both in DESIGN.md §4: rounds end
// early once the phase is empty, with ζ only as a cap; objects travel
// directly rather than staging at bridges; a stall limit ends unlucky
// phases; and a deterministic list-scheduling fallback places what is
// left.
type Cluster struct {
	// Topo is the cluster topology the instance lives on.
	Topo *topology.ClusterGraph
	// Rng drives Approach 2's random choices. Required for Approach 2
	// and Auto.
	Rng *rand.Rand
	// Approach selects the algorithm (default ClusterAuto).
	Approach ClusterApproach
}

// Name implements Scheduler.
func (cs *Cluster) Name() string {
	switch cs.Approach {
	case ClusterApproach1:
		return "cluster/approach1"
	case ClusterApproach2:
		return "cluster/approach2"
	default:
		return "cluster/auto"
	}
}

// Schedule implements Scheduler.
func (cs *Cluster) Schedule(in *tm.Instance) (*Result, error) { return Checked(cs, in) }

// ScheduleUnchecked implements Unchecked.
func (cs *Cluster) ScheduleUnchecked(in *tm.Instance) (*Result, error) {
	if cs.Topo == nil {
		return nil, fmt.Errorf("core: cluster scheduler needs its topology")
	}
	if in.G != cs.Topo.Graph() {
		return nil, fmt.Errorf("core: instance graph is not the scheduler's cluster graph")
	}
	sigma := cs.sigma(in)
	switch cs.Approach {
	case ClusterApproach1:
		return cs.approach1(in, sigma)
	case ClusterApproach2:
		return cs.approach2(in, sigma)
	default:
		r1, err := cs.approach1(in, sigma)
		if err != nil {
			return nil, err
		}
		r2, err := cs.approach2(in, sigma)
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

func (cs *Cluster) approach1(in *tm.Instance, sigma int) (*Result, error) {
	g := &Greedy{}
	r, err := g.ScheduleUnchecked(in)
	if err != nil {
		return nil, err
	}
	r.Algorithm = "cluster/approach1"
	r.Stats["sigma"] = int64(sigma)
	return r, nil
}

// sigma returns σ = max over objects of the number of distinct clusters
// with a requester. A cluster's stamp is the last object that counted it.
func (cs *Cluster) sigma(in *tm.Instance) int {
	stamp := make([]int32, cs.Topo.Alpha())
	sigma := 0
	for o := 0; o < in.NumObjects; o++ {
		clusters := 0
		for _, id := range in.Users(tm.ObjectID(o)) {
			if cl := cs.Topo.ClusterOf(in.Txns[id].Node); stamp[cl] != int32(o)+1 {
				stamp[cl] = int32(o) + 1
				clusters++
			}
		}
		sigma = max(sigma, clusters)
	}
	return sigma
}

// approach2 assigns each cluster a random phase and runs one activation
// call per phase over its clusters, in ascending cluster order.
func (cs *Cluster) approach2(in *tm.Instance, sigma int) (*Result, error) {
	if cs.Rng == nil {
		return nil, fmt.Errorf("core: cluster approach 2 needs an Rng")
	}
	alpha := cs.Topo.Alpha()
	psi := max(int(math.Ceil(float64(sigma)/(24*logM(in)))), 1)

	// Assign each cluster to a uniformly random phase.
	phaseOf := make([]int, alpha)
	for i := range phaseOf {
		phaseOf[i] = cs.Rng.Intn(psi)
	}

	// byCluster[cl] lists the transactions homed in cl in ID order.
	byCluster := make([][]tm.TxnID, alpha)
	for i := range in.Txns {
		cl := cs.Topo.ClusterOf(in.Txns[i].Node)
		byCluster[cl] = append(byCluster[cl], tm.TxnID(i))
	}

	c := newComposer(in)
	a := newActivation(in, c, cs.Rng)
	groups := make([][]tm.TxnID, 0, alpha)
	for p := 0; p < psi; p++ {
		groups = groups[:0]
		for cl, ph := range phaseOf {
			if ph == p {
				groups = append(groups, byCluster[cl])
			}
		}
		a.run(groups, nil)
	}

	r := newResult("cluster/approach2", c.finish())
	r.Stats["sigma"] = int64(sigma)
	r.Stats["psi"] = int64(psi)
	r.Stats["zeta_cap"] = a.zeta
	r.Stats["rounds"] = a.rounds
	r.Stats["fallbacks"] = a.fallbacks
	return r, nil
}
