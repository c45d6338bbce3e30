// Package depgraph colors the transaction dependency (conflict) graph H of
// Section 2.3 greedily. Nodes of H are transactions; an edge joins two
// transactions that share at least one object, weighted by the
// shortest-path distance between their nodes in the communication graph.
// A valid coloring assigns each transaction a positive integer time step
// such that adjacent transactions' colors differ by at least the incident
// edge weight; greedy coloring uses at most Γ+1 = h_max·Δ+1 colors.
//
// The greedy schedule needs only H's neighbour sets and h_max, so H is
// never stored. Two serial passes walk a member list's conflicts straight
// from a tm.MemberSource instead. The ranks pass colors the members in a
// given order; the summary pass reports each member's degree, Δ, h_max and
// the number of distinct edges. Streaming callers order by rank and need
// only the first; the offline schedulers run both (Color) and execute
// member u at k_u·max(h_max, 1) + 1. BuildReference keeps a map-of-maps H
// as the oracle both passes are tested against.
package depgraph

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"dtmsched/internal/keysort"
	"dtmsched/internal/tm"
)

// DepGraph is H over a set of transactions of an instance (possibly a
// subset, as the Grid and Star algorithms schedule tile by tile), with
// conflicts read from a member source. It holds no edges: each pass walks
// the source again.
//
// A member's objects come from the instance and their member lists from
// the source, which must list every member under each object it requests
// and list under object o only transactions that request o (New's
// contract; CheckSource tests it). tm.Instance.Index lists every
// transaction. A hierarchical shard view lists only its shard's
// transactions, so it restricts H through its group contents: a member
// meets only the members of its own shard.
type DepGraph struct {
	// IDs lists the member transactions; local index i refers to IDs[i].
	IDs []tm.TxnID

	in    *tm.Instance
	src   tm.MemberSource
	local []int32 // local[id] is transaction id's member index, or −1
}

// New returns H over the given transactions of in, reading conflicts from
// src. A nil ids slice means all transactions. src must list every member
// under each of its objects (see DepGraph); the passes do not look for a
// member in its own objects' lists.
func New(in *tm.Instance, ids []tm.TxnID, src tm.MemberSource) *DepGraph {
	ids = orAll(in, ids)
	local := make([]int32, in.NumTxns())
	for i := range local {
		local[i] = -1
	}
	for i, id := range ids {
		local[id] = int32(i)
	}
	return &DepGraph{IDs: ids, in: in, src: src, local: local}
}

// orAll returns ids, or every transaction of in when ids is nil.
func orAll(in *tm.Instance, ids []tm.TxnID) []tm.TxnID {
	if ids == nil {
		ids = make([]tm.TxnID, in.NumTxns())
		for i := range ids {
			ids[i] = tm.TxnID(i)
		}
	}
	return ids
}

// CheckSource reports the first way h's member source breaks New's
// contract: a member missing from the list of an object it requests, or a
// listed transaction that does not request the object. The passes trust
// the contract, so tests build their graphs behind this check.
func (h *DepGraph) CheckSource() error {
	for _, id := range h.IDs {
		for _, o := range h.in.Txns[id].Objects {
			if !slices.Contains(h.src.Members(o), id) {
				return fmt.Errorf("depgraph: member %d is missing from the list of its object %d", id, o)
			}
		}
	}
	for o := 0; o < h.src.NumObjects(); o++ {
		for _, j := range h.src.Members(tm.ObjectID(o)) {
			if !h.in.Txns[j].Uses(tm.ObjectID(o)) {
				return fmt.Errorf("depgraph: transaction %d is listed under object %d, which it does not request", j, o)
			}
		}
	}
	return nil
}

// Len returns the number of member transactions.
func (h *DepGraph) Len() int { return len(h.IDs) }

// Ranks colors H greedily in the given local-index order (nil for natural
// order) and returns each member's rank k_u: the smallest rank no
// already-ranked neighbour holds. By the pigeonhole argument of Section
// 2.3, k_u ≤ Δ, so the times k_u·h_max + 1 stay within Γ+1, and distinct
// multiples of h_max differ by at least every edge weight, which makes
// them a valid coloring. Since those times order exactly like the ranks,
// OrderByColor(ranks) is the coloring order without h_max.
//
// For member u the pass marks its neighbours' ranks in used, indexed by
// rank, with stamp u+1, so used is never cleared; a rank is at most
// n − 1, so n slots hold every rank. A neighbour reached through two
// shared objects only marks its slot again.
//
// order must be a permutation of the member indices; a partial order
// (wrong length, out-of-range index, or duplicate) panics rather than
// silently producing an invalid or incomplete coloring.
func (h *DepGraph) Ranks(order []int) []int64 {
	n := len(h.IDs)
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != n {
		panic(fmt.Sprintf("depgraph: order has %d entries for %d members", len(order), n))
	}
	k := make([]int64, n)
	for i := range k {
		k[i] = -1
	}
	used := make([]int32, n)
	for _, u := range order {
		if u < 0 || u >= n {
			panic(fmt.Sprintf("depgraph: order entry %d out of range for %d members", u, n))
		}
		if k[u] >= 0 {
			panic(fmt.Sprintf("depgraph: order lists member %d twice", u))
		}
		id, stamp := h.IDs[u], int32(u)+1
		for _, o := range h.in.Txns[id].Objects {
			for _, j := range h.src.Members(o) {
				if lj := h.local[j]; lj >= 0 && j != id && k[lj] >= 0 {
					used[k[lj]] = stamp
				}
			}
		}
		var ku int64
		for used[ku] == stamp {
			ku++
		}
		k[u] = ku
	}
	return k
}

// Summary is what the offline schedulers report of H.
type Summary struct {
	// Degree holds each member's number of distinct neighbours.
	Degree []int32
	// MaxDegree is Δ, the largest degree.
	MaxDegree int
	// HMax is h_max, the largest edge weight (0 when H has no edges).
	HMax int64
	// Edges is the number of distinct undirected edges of H.
	Edges int64
	// Duration is the wall time of the conflict-graph work, set by the
	// caller that times it (Color times both passes).
	Duration time.Duration
}

// Summarize walks every member's conflicts once and returns H's summary.
// A stamp per member (seen[j] = i+1 once member i has counted j) counts
// each neighbour once however many objects the pair shares, and each pair
// is weighed once, from its lower local index, with one metric call. That
// h_max equals the largest weight over both directions because the
// metric is symmetric, as BuildReference also assumes.
func (h *DepGraph) Summarize() Summary {
	n := len(h.IDs)
	s := Summary{Degree: make([]int32, n)}
	seen := make([]int32, n)
	for i, id := range h.IDs {
		stamp, ui := int32(i)+1, h.in.Txns[id].Node
		var deg int32
		for _, o := range h.in.Txns[id].Objects {
			for _, j := range h.src.Members(o) {
				lj := h.local[j]
				if lj < 0 || j == id || seen[lj] == stamp {
					continue
				}
				seen[lj] = stamp
				deg++
				if lj > int32(i) {
					s.Edges++
					s.HMax = max(s.HMax, h.in.Dist(ui, h.in.Txns[j].Node))
				}
			}
		}
		s.Degree[i] = deg
		s.MaxDegree = max(s.MaxDegree, int(deg))
	}
	return s
}

// WeightedDegree returns Γ = h_max·Δ, the paper's weighted degree of H.
func (s Summary) WeightedDegree() int64 { return s.HMax * int64(s.MaxDegree) }

// Times turns ranks into execution times k·h_max + 1 in place and returns
// them; a conflict-free H (h_max = 0) runs everyone at step 1.
func (s Summary) Times(ranks []int64) []int64 {
	hmax := max(s.HMax, 1)
	for i, k := range ranks {
		ranks[i] = k*hmax + 1
	}
	return ranks
}

// AddStats accumulates this graph's instrumentation into a scheduler's
// stats under the depgraph_* keys the engine and the observability layer
// read: graph count, summed wall nanoseconds, and summed distinct edges.
// Schedulers that color several graphs (Grid per tile, Star per period,
// hier per shard) call it once per graph.
func (s Summary) AddStats(stats map[string]int64) {
	stats["depgraph_builds"]++
	stats["depgraph_build_ns"] += int64(s.Duration)
	stats["depgraph_edges"] += s.Edges
}

// Color is the offline schedulers' greedy coloring: it ranks the given
// transactions of in in node order and returns one execution time per
// member, aligned with ids, together with H's summary, whose Duration
// covers all of the work.
func Color(in *tm.Instance, ids []tm.TxnID, src tm.MemberSource) ([]int64, Summary) {
	start := time.Now()
	h := New(in, ids, src)
	s := h.Summarize()
	times := s.Times(h.Ranks(h.OrderByNode()))
	s.Duration = time.Since(start)
	return times, s
}

// Reference is H stored as a map of maps: the oracle the passes are
// tested against and the mapref baseline of the root benchmark.
type Reference struct {
	// IDs lists the member transactions; local index i refers to IDs[i].
	IDs []tm.TxnID

	adj  []map[int]int64 // adj[i][j] is the weight of edge {i, j}
	hmax int64
}

// BuildReference constructs H over the given transactions of in from the
// transactions' own object lists. A nil ids slice means all transactions.
// Each pair is weighed once, so like Summarize it assumes a symmetric
// metric.
func BuildReference(in *tm.Instance, ids []tm.TxnID) *Reference {
	ids = orAll(in, ids)
	h := &Reference{IDs: ids, adj: make([]map[int]int64, len(ids))}
	for i := range h.adj {
		h.adj[i] = make(map[int]int64)
	}
	byObject := make(map[tm.ObjectID][]int)
	for i, id := range ids {
		for _, o := range in.Txns[id].Objects {
			byObject[o] = append(byObject[o], i)
		}
	}
	for _, members := range byObject {
		for x := 0; x < len(members); x++ {
			for y := x + 1; y < len(members); y++ {
				i, j := members[x], members[y]
				if _, done := h.adj[i][j]; done {
					continue
				}
				w := in.Dist(in.Txns[ids[i]].Node, in.Txns[ids[j]].Node)
				h.adj[i][j] = w
				h.adj[j][i] = w
				h.hmax = max(h.hmax, w)
			}
		}
	}
	return h
}

// GreedyColor is the reference greedy coloring: members in the given
// order (a permutation of the local indices) each take the time
// k·max(h_max, 1) + 1 for the smallest k no colored neighbour holds.
func (h *Reference) GreedyColor(order []int) []int64 {
	hmax := max(h.hmax, 1)
	times := make([]int64, len(h.IDs))
	for _, u := range order {
		used := make(map[int64]bool, len(h.adj[u]))
		for v := range h.adj[u] {
			if times[v] > 0 {
				used[(times[v]-1)/hmax] = true
			}
		}
		var k int64
		for used[k] {
			k++
		}
		times[u] = k*hmax + 1
	}
	return times
}

// CheckColoring verifies that times is a valid coloring of H: positive
// times, with |t_i − t_j| ≥ weight(i, j) for every edge. It returns the
// first violation found.
func (h *Reference) CheckColoring(times []int64) error {
	if len(times) != len(h.IDs) {
		return fmt.Errorf("depgraph: %d times for %d members", len(times), len(h.IDs))
	}
	for i, t := range times {
		if t < 1 {
			return fmt.Errorf("depgraph: member %d has time %d < 1", i, t)
		}
		for j, w := range h.adj[i] {
			if d := times[i] - times[j]; d < w && -d < w {
				return fmt.Errorf("depgraph: members %d (t=%d) and %d (t=%d) violate weight %d",
					i, times[i], j, times[j], w)
			}
		}
	}
	return nil
}

// OrderByNode returns local indices sorted by the member transactions'
// node IDs — the default coloring order of the schedulers. The order among
// members that share a node is whatever the unstable comparison sort
// leaves: deterministic for a given member list, but not by ID. When every
// member's node is distinct (a serving window, whose cutter admits one
// transaction per node) and the nodes span a short range, the order is
// unique and is read off node-indexed slots instead of sorted.
func (h *DepGraph) OrderByNode() []int {
	in := h.in
	order := make([]int, len(h.IDs))
	if !h.orderDistinctNodes(order) {
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int {
			return cmp.Compare(in.Txns[h.IDs[a]].Node, in.Txns[h.IDs[b]].Node)
		})
	}
	return order
}

// orderDistinctNodes fills order by node when the members' nodes are
// distinct and fit keysort's stack span, reporting whether it did: each
// member marks its node's slot, and a scan of the slots emits the order.
// It gives up at the first node marked twice, since ties must keep the
// comparison sort's order.
func (h *DepGraph) orderDistinctNodes(order []int) bool {
	if len(order) == 0 {
		return true
	}
	in := h.in
	lo, hi := in.Txns[h.IDs[0]].Node, in.Txns[h.IDs[0]].Node
	for _, id := range h.IDs {
		lo, hi = min(lo, in.Txns[id].Node), max(hi, in.Txns[id].Node)
	}
	span := int64(hi-lo) + 1
	if span > keysort.StackSpan || !keysort.Fits(span, len(order)) {
		return false
	}
	var slot [keysort.StackSpan]int32 // member index + 1; 0 = free
	for i, id := range h.IDs {
		v := in.Txns[id].Node - lo
		if slot[v] != 0 {
			return false
		}
		slot[v] = int32(i) + 1
	}
	k := 0
	for _, m := range slot[:span] {
		if m != 0 {
			order[k] = int(m) - 1
			k++
		}
	}
	return true
}

// OrderByColor returns local indices sorted by (color[i], transaction ID)
// — the deterministic list-scheduling order of the pipelined window and
// streaming schedulers, which pass ranks as colors. When IDs ascend (as
// New's nil member list gives) and the colors span a short range, a
// stable counting sort over local indices yields that order; otherwise it
// is a comparison sort.
func (h *DepGraph) OrderByColor(color []int64) []int {
	order := make([]int, len(h.IDs))
	if len(order) == 0 {
		return order
	}
	lo, hi := color[0], color[0]
	ascending := true
	for i, c := range color {
		lo, hi = min(lo, c), max(hi, c)
		if i > 0 && h.IDs[i] < h.IDs[i-1] {
			ascending = false
		}
	}
	if span := hi - lo + 1; ascending && span <= keysort.StackSpan && keysort.Fits(span, len(order)) {
		var counts [keysort.StackSpan + 1]int32
		keysort.Stable(order, color, lo, counts[:span+1])
		return order
	}
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(color[a], color[b]); c != 0 {
			return c
		}
		return cmp.Compare(h.IDs[a], h.IDs[b])
	})
	return order
}
