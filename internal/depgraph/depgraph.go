// Package depgraph builds the transaction dependency (conflict) graph H of
// Section 2.3 and colors it greedily. Nodes of H are transactions; an edge
// joins two transactions that share at least one object, weighted by the
// shortest-path distance between their nodes in the communication graph.
// A valid coloring assigns each transaction a positive integer time step
// such that adjacent transactions' colors differ by at least the incident
// edge weight; greedy coloring uses at most Γ+1 = h_max·Δ+1 colors.
//
// H is stored in compressed sparse row (CSR) form: one flat neighbor array
// plus one flat weight array, indexed per member by a row-offset table.
// Build emits each row directly from the shared tm.ConflictIndex: rows are
// sharded across workers, and each worker marks a row's neighbors in a
// private bitset and reads them back in ascending order — so the resulting
// CSR bytes are identical for every worker count, and all warm queries
// (Weight, Degree, Neighbors, GreedyColor, CheckColoring) are
// zero-allocation slice walks.
package depgraph

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"time"

	"dtmsched/internal/keysort"
	"dtmsched/internal/tm"
)

// DepGraph is the weighted conflict graph over a set of transactions
// (possibly a subset of an instance's transactions, as the Grid and Star
// algorithms schedule tile by tile), in CSR form.
type DepGraph struct {
	// IDs lists the member transactions; local index i refers to IDs[i].
	IDs []tm.TxnID

	// CSR adjacency: member i's neighbors are nbr[rowStart[i]:rowStart[i+1]]
	// (ascending local indices, each undirected edge stored in both rows)
	// with parallel edge weights in wt.
	rowStart []int32
	nbr      []int32
	wt       []int64

	hmax int64
	mdeg int
	info BuildInfo
}

// BuildInfo reports how a DepGraph was built; schedulers forward it into
// their stats so the engine and observability layers can attribute
// schedule-stage time to conflict-graph construction.
type BuildInfo struct {
	// Edges is the number of distinct undirected edges of H.
	Edges int64
	// Duration is the wall time of the build.
	Duration time.Duration
}

// Options tunes Build. The zero value (auto worker count, index taken from
// the instance) is what every scheduler uses.
type Options struct {
	// Workers is the number of build goroutines: 0 picks automatically
	// (serial for small member sets, up to GOMAXPROCS beyond that),
	// 1 forces the serial path. It is capped at the member count. The
	// built graph is byte-identical for every worker count.
	Workers int
	// Index supplies the object → member-transaction source to read
	// conflicts from. Nil uses the instance's own cached Index(). The
	// hierarchical scheduler passes one tm.ShardView per subtree so each
	// shard's build sees only its own members without copying the index.
	//
	// The build walks a member's objects from the instance and their
	// member lists from Index, so a transaction listed under object o
	// must request o (both sources above satisfy this). A transaction
	// missing from o's list gets no edges through o.
	Index tm.MemberSource
}

// serialThreshold is the member count below which the auto policy builds
// serially: tile- and segment-sized graphs are cheaper to build inline
// than to fan out.
const serialThreshold = 512

// Build constructs H over the given transactions of in with default
// options. A nil ids slice means all transactions. Edge weights come from
// the instance's metric.
func Build(in *tm.Instance, ids []tm.TxnID) *DepGraph {
	return BuildOpts(in, ids, Options{})
}

// BuildOpts constructs H over the given transactions of in. A nil ids
// slice means all transactions.
//
// The build emits every CSR row straight from the conflict index in three
// passes. The slot pass bounds row i's length by Σ (|Members(o)| − 1) over
// i's objects o, capped at n − 1, and lays the rows out at those bounds,
// so nbr and wt are allocated once. The fill pass shards rows across
// workers: for row i a worker marks the local index of every other member
// of the objects whose member list holds i in a private bitset, then
// emits the set bits in ascending order with their weights from the
// instance metric. The compact pass slides each shard's rows left over the
// slack the bounds left behind. Rows come out sorted and deduplicated by
// construction, so the CSR bytes, h_max and Δ are identical at every
// worker count.
func BuildOpts(in *tm.Instance, ids []tm.TxnID, opt Options) *DepGraph {
	start := time.Now()
	if ids == nil {
		ids = make([]tm.TxnID, in.NumTxns())
		for i := range ids {
			ids[i] = tm.TxnID(i)
		}
	}
	n := len(ids)
	h := &DepGraph{IDs: ids, rowStart: make([]int32, n+1)}

	index := opt.Index
	if index == nil {
		index = in.Index()
	}
	workers := opt.Workers
	if workers <= 0 {
		if n < serialThreshold {
			workers = 1
		} else {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	workers = max(1, min(workers, n))

	// Local-index lookup: localOf[id] = member index, or −1.
	localOf := make([]int32, in.NumTxns())
	for i := range localOf {
		localOf[i] = -1
	}
	for i, id := range ids {
		localOf[id] = int32(i)
	}

	// Slot pass: row i starts at the sum of the earlier rows' bounds.
	var slots int64
	for i, id := range ids {
		h.rowStart[i] = int32(slots)
		var bound int64
		for _, o := range in.Txns[id].Objects {
			bound += int64(max(len(index.Members(o))-1, 0))
		}
		slots += min(bound, int64(n-1))
	}
	if slots > math.MaxInt32 {
		panic(fmt.Sprintf("depgraph: %d directed pair slots overflow the CSR int32 layout", slots))
	}
	h.rowStart[n] = int32(slots)
	h.nbr = make([]int32, slots)
	h.wt = make([]int64, slots)

	// Fill pass: each shard writes its rows back to back from its first
	// slot and records where they end.
	type shard struct {
		lo, hi int
		end    int32
		hmax   int64
		mdeg   int
	}
	shards := make([]shard, workers)
	runShards(workers, n, func(s, lo, hi int) {
		// Two-level bitset: bit j of set marks neighbor j, bit w of sum
		// marks a non-zero set[w], and touched lists the non-zero words
		// of sum. Emitting walks sum in order, so only touched is sorted.
		set := make([]uint64, (n+63)/64)
		sum := make([]uint64, (len(set)+63)/64)
		var touched []int32
		var hmax int64
		mdeg := 0
		at := h.rowStart[lo]
		for i := lo; i < hi; i++ {
			id := ids[i]
			for _, o := range in.Txns[id].Objects {
				ms := index.Members(o)
				if _, ok := slices.BinarySearch(ms, id); !ok {
					continue
				}
				for _, j := range ms {
					lj := localOf[j]
					if lj < 0 || j == id {
						continue
					}
					if w := lj >> 6; set[w] == 0 {
						if sum[w>>6] == 0 {
							touched = append(touched, w>>6)
						}
						sum[w>>6] |= 1 << (w & 63)
					}
					set[lj>>6] |= 1 << (lj & 63)
				}
			}
			slices.Sort(touched)
			h.rowStart[i] = at
			ui := in.Txns[id].Node
			for _, t := range touched {
				for sb := sum[t]; sb != 0; sb &= sb - 1 {
					w := t<<6 | int32(bits.TrailingZeros64(sb))
					for b := set[w]; b != 0; b &= b - 1 {
						j := w<<6 | int32(bits.TrailingZeros64(b))
						wgt := in.Dist(ui, in.Txns[ids[j]].Node)
						h.nbr[at], h.wt[at] = j, wgt
						at++
						hmax = max(hmax, wgt)
					}
					set[w] = 0
				}
				sum[t] = 0
			}
			touched = touched[:0]
			mdeg = max(mdeg, int(at-h.rowStart[i]))
		}
		shards[s] = shard{lo: lo, hi: hi, end: at, hmax: hmax, mdeg: mdeg}
	})

	// Compact pass: close the gap between consecutive shards' rows.
	var end int32
	for _, s := range shards {
		from := h.rowStart[s.lo]
		if shift := from - end; shift > 0 {
			copy(h.nbr[end:], h.nbr[from:s.end])
			copy(h.wt[end:], h.wt[from:s.end])
			for i := s.lo; i < s.hi; i++ {
				h.rowStart[i] -= shift
			}
		}
		end += s.end - from
		h.hmax = max(h.hmax, s.hmax)
		h.mdeg = max(h.mdeg, s.mdeg)
	}
	h.rowStart[n] = end
	h.nbr, h.wt = h.nbr[:end], h.wt[:end]
	h.info = BuildInfo{Edges: int64(end) / 2, Duration: time.Since(start)}
	return h
}

// runShards splits [0, size) into contiguous chunks and runs fn on each,
// concurrently when workers > 1. fn receives its shard number and bounds;
// shard s always covers the same range for a given (workers, size), which
// keeps per-shard bookkeeping deterministic.
func runShards(workers, size int, fn func(shard, lo, hi int)) {
	if workers <= 1 || size <= 1 {
		fn(0, 0, size)
		return
	}
	chunk := (size + workers - 1) / workers
	done := make(chan struct{}, workers)
	launched := 0
	for shard := 0; shard < workers; shard++ {
		lo := shard * chunk
		hi := lo + chunk
		if lo >= size {
			// Late shards may be empty; still run fn so per-shard state
			// exists for every shard index.
			lo, hi = size, size
		} else if hi > size {
			hi = size
		}
		launched++
		go func(shard, lo, hi int) {
			fn(shard, lo, hi)
			done <- struct{}{}
		}(shard, lo, hi)
	}
	for i := 0; i < launched; i++ {
		<-done
	}
}

// BuildReference is the pre-CSR map-of-maps construction, retained as the
// differential-testing oracle and the benchmark baseline that the parallel
// CSR build is measured against. It produces a DepGraph equal to
// BuildOpts' for every input (the CSR conversion sorts rows the same way).
func BuildReference(in *tm.Instance, ids []tm.TxnID) *DepGraph {
	start := time.Now()
	if ids == nil {
		ids = make([]tm.TxnID, in.NumTxns())
		for i := range ids {
			ids[i] = tm.TxnID(i)
		}
	}
	h := &DepGraph{IDs: ids}
	index := make(map[tm.TxnID]int, len(ids))
	adj := make([]map[int]int64, len(ids))
	for i, id := range ids {
		index[id] = i
		adj[i] = make(map[int]int64)
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
				if _, done := adj[i][j]; done {
					continue
				}
				w := in.Dist(in.Txns[ids[i]].Node, in.Txns[ids[j]].Node)
				adj[i][j] = w
				adj[j][i] = w
				if w > h.hmax {
					h.hmax = w
				}
			}
		}
	}
	n := len(ids)
	h.rowStart = make([]int32, n+1)
	var total int64
	for i := range adj {
		h.rowStart[i] = int32(total)
		total += int64(len(adj[i]))
		if d := len(adj[i]); d > h.mdeg {
			h.mdeg = d
		}
	}
	h.rowStart[n] = int32(total)
	h.nbr = make([]int32, total)
	h.wt = make([]int64, total)
	for i := range adj {
		row := h.nbr[h.rowStart[i]:h.rowStart[i+1]]
		k := 0
		for j := range adj[i] {
			row[k] = int32(j)
			k++
		}
		slices.Sort(row)
		for k, j := range row {
			h.wt[int(h.rowStart[i])+k] = adj[i][int(j)]
		}
	}
	h.info = BuildInfo{Edges: total / 2, Duration: time.Since(start)}
	return h
}

// Len returns the number of member transactions.
func (h *DepGraph) Len() int { return len(h.IDs) }

// HMax returns h_max, the maximum edge weight (0 when H has no edges).
func (h *DepGraph) HMax() int64 { return h.hmax }

// MaxDegree returns Δ, the maximum node degree.
func (h *DepGraph) MaxDegree() int { return h.mdeg }

// WeightedDegree returns Γ = h_max·Δ, the paper's weighted degree of H.
func (h *DepGraph) WeightedDegree() int64 { return h.hmax * int64(h.mdeg) }

// NumEdges returns the number of distinct undirected edges of H.
func (h *DepGraph) NumEdges() int64 { return h.info.Edges }

// Info returns the build instrumentation.
func (h *DepGraph) Info() BuildInfo { return h.info }

// Weight returns the edge weight between members with local indices i and
// j, or 0 if they do not conflict. Zero-allocation: a binary search over
// member i's sorted CSR row.
func (h *DepGraph) Weight(i, j int) int64 {
	lo, hi := h.rowStart[i], h.rowStart[i+1]
	row := h.nbr[lo:hi]
	x := int32(j)
	a, b := 0, len(row)
	for a < b {
		mid := int(uint(a+b) >> 1)
		if row[mid] < x {
			a = mid + 1
		} else {
			b = mid
		}
	}
	if a < len(row) && row[a] == x {
		return h.wt[int(lo)+a]
	}
	return 0
}

// Degree returns the degree of local member i.
func (h *DepGraph) Degree(i int) int { return int(h.rowStart[i+1] - h.rowStart[i]) }

// Neighbors returns member i's neighbor row: ascending local indices and
// the parallel edge weights. The slices alias the graph's CSR storage —
// read-only, zero-allocation.
func (h *DepGraph) Neighbors(i int) ([]int32, []int64) {
	lo, hi := h.rowStart[i], h.rowStart[i+1]
	return h.nbr[lo:hi], h.wt[lo:hi]
}

// GreedyColor colors H in the given local-index order (nil for natural
// order) and returns one execution time per member, aligned with IDs.
// Member u receives color k_u·h_max + 1 for the smallest k_u not used by
// an already-colored neighbor; by the pigeonhole argument of Section 2.3,
// k_u ≤ Δ, so every color is at most Γ+1. Distinct multiples of h_max
// differ by at least h_max ≥ every edge weight, making the coloring valid.
//
// order must be a permutation of the member indices; a partial order
// (wrong length, out-of-range index, or duplicate) panics rather than
// silently producing an invalid or incomplete coloring.
func (h *DepGraph) GreedyColor(order []int) []int64 {
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
	hmax := h.hmax
	if hmax == 0 {
		hmax = 1 // conflict-free: everyone runs at step 1
	}
	k := make([]int64, n)
	for i := range k {
		k[i] = -1
	}
	times := make([]int64, n)
	var used []bool
	for _, u := range order {
		if u < 0 || u >= n {
			panic(fmt.Sprintf("depgraph: order entry %d out of range for %d members", u, n))
		}
		if k[u] >= 0 {
			panic(fmt.Sprintf("depgraph: order lists member %d twice", u))
		}
		row := h.nbr[h.rowStart[u]:h.rowStart[u+1]]
		deg := len(row)
		if cap(used) < deg+1 {
			used = make([]bool, deg+1)
		}
		used = used[:deg+1]
		for i := range used {
			used[i] = false
		}
		for _, v := range row {
			if kv := k[v]; kv >= 0 && kv <= int64(deg) {
				used[kv] = true
			}
		}
		var ku int64
		for int(ku) <= deg && used[ku] {
			ku++
		}
		k[u] = ku
		times[u] = ku*hmax + 1
	}
	return times
}

// CheckColoring verifies that times is a valid coloring of H: positive
// times, with |t_i − t_j| ≥ weight(i, j) for every edge. It returns the
// first violation found.
func (h *DepGraph) CheckColoring(times []int64) error {
	if len(times) != len(h.IDs) {
		return fmt.Errorf("depgraph: %d times for %d members", len(times), len(h.IDs))
	}
	for i, t := range times {
		if t < 1 {
			return fmt.Errorf("depgraph: member %d has time %d < 1", i, t)
		}
		row, wts := h.Neighbors(i)
		for e, j := range row {
			w := wts[e]
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
func (h *DepGraph) OrderByNode(in *tm.Instance) []int {
	order := make([]int, len(h.IDs))
	if !h.orderDistinctNodes(in, order) {
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
func (h *DepGraph) orderDistinctNodes(in *tm.Instance, order []int) bool {
	if len(order) == 0 {
		return true
	}
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
// streaming schedulers. When IDs ascend (as Build's nil member list
// gives) and the colors span a short range, a stable counting sort over
// local indices yields that order; otherwise it is a comparison sort.
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
