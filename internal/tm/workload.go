package tm

import (
	"fmt"
	"math/rand"
	"slices"

	"dtmsched/internal/graph"
	"dtmsched/internal/xrand"
)

// Placement selects the initial node of each object, matching the paper's
// assumption that "initially, each object is at one of the nodes (if any)
// that needs it".
type Placement int

// Placement policies.
const (
	// PlaceAtRandomUser homes each object at a uniformly random
	// requesting transaction's node (or a random node if unrequested).
	PlaceAtRandomUser Placement = iota
	// PlaceAtFirstUser homes each object at its lowest-ID requester's
	// node, the deterministic variant used by tests.
	PlaceAtFirstUser
	// PlaceRandom homes each object at a uniformly random node,
	// regardless of requesters (used for sensitivity experiments; the
	// paper's theorems assume user placement).
	PlaceRandom
)

// Workload describes how transactions choose their object sets.
type Workload struct {
	// W is the number of shared objects.
	W int
	// K is the number of objects each transaction requests (k ≤ w).
	K int
	// Pick chooses the object set for the transaction at a node. It
	// must return K distinct objects in [0, W).
	Pick func(r *rand.Rand, node graph.NodeID) []ObjectID
	// Name labels the workload in reports.
	Name string
}

// Generate builds an instance over g (with distance oracle metric, nil for
// the graph itself), placing one transaction on each node of nodes and
// homing objects per policy. It uses r for every random choice.
func (w Workload) Generate(r *rand.Rand, g *graph.Graph, metric graph.Metric, nodes []graph.NodeID, place Placement) *Instance {
	if w.K > w.W {
		panic(fmt.Sprintf("tm: workload k=%d exceeds w=%d", w.K, w.W))
	}
	txns := make([]Txn, len(nodes))
	for i, v := range nodes {
		objs := w.Pick(r, v)
		if len(objs) != w.K {
			panic(fmt.Sprintf("tm: workload %q picked %d objects, want %d", w.Name, len(objs), w.K))
		}
		txns[i] = Txn{Node: v, Objects: objs}
	}
	in := NewInstance(g, metric, w.W, txns, nil)
	in.Home = PlaceObjects(r, in, place)
	return in
}

// PlaceObjects computes initial object homes for an instance whose
// transactions are already fixed.
func PlaceObjects(r *rand.Rand, in *Instance, place Placement) []graph.NodeID {
	n := in.G.NumNodes()
	home := make([]graph.NodeID, in.NumObjects)
	for o := range home {
		users := in.Users(ObjectID(o))
		switch {
		case place == PlaceRandom || len(users) == 0:
			home[o] = graph.NodeID(r.Intn(n))
		case place == PlaceAtFirstUser:
			home[o] = in.Txns[users[0]].Node
		default: // PlaceAtRandomUser
			home[o] = in.Txns[users[r.Intn(len(users))]].Node
		}
	}
	return home
}

// UniformK is the Grid problem's workload: each transaction requests a
// uniformly random k-subset of the w objects.
func UniformK(w, k int) Workload {
	return Workload{
		W: w, K: k, Name: fmt.Sprintf("uniform(w=%d,k=%d)", w, k),
		Pick: func(r *rand.Rand, _ graph.NodeID) []ObjectID {
			return toObjectIDs(xrand.SampleK(r, w, k))
		},
	}
}

// ZipfK skews object popularity with a Zipf(s≈1.07) distribution over the w
// objects, modeling hotspot contention; each transaction still requests k
// distinct objects. This is one realization of the paper's "arbitrary"
// object sets.
func ZipfK(w, k int) Workload {
	return Workload{
		W: w, K: k, Name: fmt.Sprintf("zipf(w=%d,k=%d)", w, k),
		Pick: func(r *rand.Rand, _ graph.NodeID) []ObjectID {
			z := rand.NewZipf(r, 1.07, 1, uint64(w-1))
			picked := make(map[ObjectID]struct{}, k)
			out := make([]ObjectID, 0, k)
			for len(out) < k {
				o := ObjectID(z.Uint64())
				if _, dup := picked[o]; dup {
					continue
				}
				picked[o] = struct{}{}
				out = append(out, o)
			}
			return out
		},
	}
}

// HotspotK makes every transaction request object 0 (the hotspot) plus k−1
// uniform others — the worst case for ℓ, exercising the serialization that
// Theorem 1's lower bound argument (an object must visit each requester)
// rests on.
func HotspotK(w, k int) Workload {
	return Workload{
		W: w, K: k, Name: fmt.Sprintf("hotspot(w=%d,k=%d)", w, k),
		Pick: func(r *rand.Rand, _ graph.NodeID) []ObjectID {
			out := []ObjectID{0}
			if k > 1 {
				for _, x := range xrand.SampleK(r, w-1, k-1) {
					out = append(out, ObjectID(x+1))
				}
			}
			return out
		},
	}
}

// PartitionedK splits the object space into g groups and lets a node pick
// only from the group Assign(node) — e.g. cluster-local workloads where
// each object is used within one cluster (Cluster Approach 1's easy case).
func PartitionedK(w, k, groups int, assign func(node graph.NodeID) int) Workload {
	if groups < 1 || w%groups != 0 {
		panic(fmt.Sprintf("tm: %d objects not divisible into %d groups", w, groups))
	}
	per := w / groups
	if k > per {
		panic(fmt.Sprintf("tm: k=%d exceeds group size %d", k, per))
	}
	return Workload{
		W: w, K: k, Name: fmt.Sprintf("partitioned(w=%d,k=%d,g=%d)", w, k, groups),
		Pick: func(r *rand.Rand, node graph.NodeID) []ObjectID {
			g := assign(node)
			base := g * per
			out := make([]ObjectID, 0, k)
			for _, x := range xrand.SampleK(r, per, k) {
				out = append(out, ObjectID(base+x))
			}
			return out
		},
	}
}

// LocalizedK interpolates between PartitionedK and UniformK: the object
// space splits into g equal groups, and each draw lands in the node's own
// group (per assign) with probability locality, anywhere otherwise. Nodes
// that assign maps below zero (e.g. fog–cloud nodes above the shard tier)
// always draw uniformly. locality=1 with group-aligned assignment is fully
// partitioned; locality=0 is uniform — the knob the hierarchical
// scheduler's experiments sweep to trade local against cross conflicts.
func LocalizedK(w, k, groups int, locality float64, assign func(node graph.NodeID) int) Workload {
	if groups < 1 || w%groups != 0 {
		panic(fmt.Sprintf("tm: %d objects not divisible into %d groups", w, groups))
	}
	per := w / groups
	if k > per {
		panic(fmt.Sprintf("tm: k=%d exceeds group size %d", k, per))
	}
	if locality < 0 || locality > 1 {
		panic(fmt.Sprintf("tm: locality %g outside [0,1]", locality))
	}
	return Workload{
		W: w, K: k, Name: fmt.Sprintf("localized(w=%d,k=%d,g=%d,p=%g)", w, k, groups, locality),
		Pick: func(r *rand.Rand, node graph.NodeID) []ObjectID {
			g := assign(node)
			if g < 0 {
				return toObjectIDs(xrand.SampleK(r, w, k))
			}
			base := g * per
			picked := make(map[ObjectID]struct{}, k)
			out := make([]ObjectID, 0, k)
			for len(out) < k {
				var o ObjectID
				if r.Float64() < locality {
					o = ObjectID(base + r.Intn(per))
				} else {
					o = ObjectID(r.Intn(w))
				}
				if _, dup := picked[o]; dup {
					continue
				}
				picked[o] = struct{}{}
				out = append(out, o)
			}
			return out
		},
	}
}

// NeighborhoodK draws each transaction's objects from a window of the
// object space centered on the node's index, producing the bounded-walk
// locality that makes the Line schedule interesting (objects travel at most
// a window's width).
func NeighborhoodK(w, k, n, window int) Workload {
	if window < k {
		panic(fmt.Sprintf("tm: window %d smaller than k=%d", window, k))
	}
	return Workload{
		W: w, K: k, Name: fmt.Sprintf("neighborhood(w=%d,k=%d,win=%d)", w, k, window),
		Pick: func(r *rand.Rand, node graph.NodeID) []ObjectID {
			// Map the node's position to a window start in object space.
			frac := float64(node) / float64(maxInt(n-1, 1))
			start := int(frac * float64(w-window))
			if start < 0 {
				start = 0
			}
			if start > w-window {
				start = w - window
			}
			out := make([]ObjectID, 0, k)
			for _, x := range xrand.SampleK(r, window, k) {
				out = append(out, ObjectID(start+x))
			}
			return out
		},
	}
}

// SingleObject is the classic single shared object workload of prior
// data-flow work (Herlihy–Sun): every transaction requests object 0.
func SingleObject() Workload {
	return Workload{
		W: 1, K: 1, Name: "single-object",
		Pick: func(_ *rand.Rand, _ graph.NodeID) []ObjectID { return []ObjectID{0} },
	}
}

func toObjectIDs(xs []int) []ObjectID {
	out := make([]ObjectID, len(xs))
	for i, x := range xs {
		out[i] = ObjectID(x)
	}
	slices.Sort(out)
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
