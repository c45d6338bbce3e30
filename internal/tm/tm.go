// Package tm defines the distributed transactional memory model of Busch,
// Herlihy, Popovic, and Sharma (Section 2.1): a batch of transactions, one
// per node of a communication graph, each requesting a set of mobile shared
// objects that exist in a single copy. A transaction executes at its node
// once all requested objects have been assembled there, then releases them.
//
// The package provides the problem-instance representation consumed by
// every scheduler, plus workload generators for each scheduling problem the
// paper studies (arbitrary k-subsets, uniform-random k-subsets, cluster-
// local, hotspot/Zipf skew, and the Section 8 adversarial instances).
// Each instance embeds its conflict index (ConflictIndex): the sets A_i of
// transactions requesting each object, from which Section 2.3's
// dependency graph is read, held as one immutable CSR that is built on
// first use and shared read-only.
package tm

import (
	"fmt"
	"slices"
	"sync"

	"dtmsched/internal/graph"
)

// ObjectID identifies a shared object o_1 … o_w (0-based).
type ObjectID int

// TxnID identifies a transaction (0-based, dense).
type TxnID int

// Txn is one transaction: an atomic code block residing at Node that needs
// every object in Objects co-located before it can execute and commit.
type Txn struct {
	ID   TxnID
	Node graph.NodeID
	// Objects lists the distinct objects the transaction requests,
	// in increasing order.
	Objects []ObjectID
}

// Uses reports whether the transaction requests object o.
func (t *Txn) Uses(o ObjectID) bool {
	_, ok := slices.BinarySearch(t.Objects, o)
	return ok
}

// Instance is one batch scheduling problem: a communication graph, a
// distance oracle over it, w shared objects with initial placements, and at
// most one transaction per node.
type Instance struct {
	// G is the communication graph.
	G *graph.Graph
	// Metric is the distance oracle. Topology packages provide O(1)
	// closed forms; G itself is always a valid fallback.
	Metric graph.Metric
	// NumObjects is w, the size of the object set O.
	NumObjects int
	// Txns holds the transactions; Txns[i].ID == TxnID(i).
	Txns []Txn
	// Home[o] is the node initially holding object o.
	Home []graph.NodeID

	indexOnce sync.Once
	index     ConflictIndex // lazily built object → requesting-transaction index

	txnAtOnce sync.Once
	txnAt     []TxnID // lazily built node → hosted-transaction index (-1 = none)
}

// NewInstance assembles an instance and assigns dense transaction IDs. The
// metric may be nil, in which case the graph itself is used.
func NewInstance(g *graph.Graph, metric graph.Metric, numObjects int, txns []Txn, home []graph.NodeID) *Instance {
	if metric == nil {
		metric = g
	}
	for i := range txns {
		txns[i].ID = TxnID(i)
		sortObjects(txns[i].Objects)
	}
	return &Instance{G: g, Metric: metric, NumObjects: numObjects, Txns: txns, Home: home}
}

func sortObjects(objs []ObjectID) {
	slices.Sort(objs)
}

// NumTxns returns the number of transactions m ≤ n.
func (in *Instance) NumTxns() int { return len(in.Txns) }

// Dist returns the shortest-path distance between two nodes.
func (in *Instance) Dist(u, v graph.NodeID) int64 { return in.Metric.Dist(u, v) }

// AutoPrecomputeNodes is the largest node count at which PrecomputeDistAuto
// installs the all-pairs matrix: n² int64 cells are 32 MiB at 2048 nodes,
// negligible next to the SSSP work a dense sweep would otherwise repeat.
const AutoPrecomputeNodes = 2048

// PrecomputeDist installs the graph's all-pairs distance matrix
// (graph.Graph.Precompute, workers 0 = GOMAXPROCS) so every Dist during
// scheduling, validation, simulation, and lower-bound computation is a
// single index read. It applies only when the instance's metric is the
// graph itself — topologies with closed-form O(1) metrics never consult
// the graph, so precomputing for them would be wasted Θ(n²) work and
// memory. Reports whether the matrix was installed.
func (in *Instance) PrecomputeDist(workers int) bool {
	g, ok := in.Metric.(*graph.Graph)
	if !ok || g != in.G {
		return false
	}
	g.Precompute(workers)
	return true
}

// PrecomputeDistAuto is the library's default precompute policy: install
// the matrix only for graph-backed metrics on graphs of at most
// AutoPrecomputeNodes nodes. Reports whether the matrix was installed.
func (in *Instance) PrecomputeDistAuto(workers int) bool {
	if in.G == nil || in.G.NumNodes() > AutoPrecomputeNodes {
		return false
	}
	return in.PrecomputeDist(workers)
}

// Index returns the instance's ConflictIndex (object → requesting
// transactions). It is built on first use, in two allocations whatever the
// instance's size, and cached; the build is synchronized so instances may
// be shared across concurrent engine jobs. The returned index is owned by
// the instance and is read-only.
func (in *Instance) Index() *ConflictIndex {
	in.indexOnce.Do(func() { in.index.fill(in.NumObjects, in.Txns) })
	return &in.index
}

// Users returns the IDs of the transactions requesting object o (the
// paper's set A_i), in increasing ID order — shorthand for
// Index().Members(o).
func (in *Instance) Users(o ObjectID) []TxnID {
	return in.Index().Members(o)
}

// MaxUse returns ℓ = max_i |A_i|: the largest number of transactions
// sharing a single object. Zero for an instance with no requests.
func (in *Instance) MaxUse() int {
	return in.Index().MaxUse()
}

// MaxK returns the largest per-transaction object count k.
func (in *Instance) MaxK() int {
	k := 0
	for i := range in.Txns {
		if len(in.Txns[i].Objects) > k {
			k = len(in.Txns[i].Objects)
		}
	}
	return k
}

// Validate checks the model's structural invariants:
//   - at most one transaction per node, every node in range;
//   - every requested object exists and appears once per transaction;
//   - every object has a valid home node;
//   - the graph is connected (objects must be able to reach every
//     requester).
func (in *Instance) Validate() error {
	if in.G == nil {
		return fmt.Errorf("tm: instance has no graph")
	}
	n := in.G.NumNodes()
	if len(in.Txns) > n {
		return fmt.Errorf("tm: %d transactions exceed %d nodes", len(in.Txns), n)
	}
	seen := make(map[graph.NodeID]TxnID, len(in.Txns))
	for i := range in.Txns {
		t := &in.Txns[i]
		if t.ID != TxnID(i) {
			return fmt.Errorf("tm: transaction %d has non-dense ID %d", i, t.ID)
		}
		if t.Node < 0 || int(t.Node) >= n {
			return fmt.Errorf("tm: transaction %d at invalid node %d", i, t.Node)
		}
		if prev, dup := seen[t.Node]; dup {
			return fmt.Errorf("tm: transactions %d and %d share node %d", prev, t.ID, t.Node)
		}
		seen[t.Node] = t.ID
		for j, o := range t.Objects {
			if o < 0 || int(o) >= in.NumObjects {
				return fmt.Errorf("tm: transaction %d requests invalid object %d", i, o)
			}
			if j > 0 && t.Objects[j-1] >= o {
				return fmt.Errorf("tm: transaction %d has unsorted or duplicate objects", i)
			}
		}
	}
	if len(in.Home) != in.NumObjects {
		return fmt.Errorf("tm: %d home nodes for %d objects", len(in.Home), in.NumObjects)
	}
	for o, h := range in.Home {
		if h < 0 || int(h) >= n {
			return fmt.Errorf("tm: object %d homed at invalid node %d", o, h)
		}
	}
	if !in.G.Connected() {
		return fmt.Errorf("tm: communication graph is disconnected")
	}
	return nil
}

// TxnAt returns the transaction residing at node v, or nil when the node
// hosts none. The node→transaction index is built on first use (same
// synchronization as Users), so hot-path callers pay O(1) per lookup
// rather than a linear scan per call. Nodes outside the graph's range
// host no transaction on a valid instance (Validate enforces it) and
// report nil.
func (in *Instance) TxnAt(v graph.NodeID) *Txn {
	in.txnAtOnce.Do(in.buildTxnAt)
	if v < 0 || int(v) >= len(in.txnAt) {
		return nil
	}
	i := in.txnAt[v]
	if i < 0 {
		return nil
	}
	return &in.Txns[i]
}

func (in *Instance) buildTxnAt() {
	n := 0
	if in.G != nil {
		n = in.G.NumNodes()
	}
	idx := make([]TxnID, n)
	for i := range idx {
		idx[i] = -1
	}
	for i := range in.Txns {
		if v := in.Txns[i].Node; v >= 0 && int(v) < n {
			idx[v] = TxnID(i)
		}
	}
	in.txnAt = idx
}

// String summarizes the instance.
func (in *Instance) String() string {
	return fmt.Sprintf("instance(%s, m=%d txns, w=%d objects, k≤%d)",
		in.G, len(in.Txns), in.NumObjects, in.MaxK())
}
