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
// Build enumerates conflict pairs from the instance's shared
// tm.ConflictIndex in parallel (per-object shards into per-worker
// buffers), merges them with a counting sort over rows, and sorts +
// deduplicates each row — so the resulting CSR bytes are identical for
// every worker count, and all warm queries (Weight, Degree, Neighbors,
// GreedyColor, CheckColoring) are zero-allocation slice walks.
package depgraph

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

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
	// Workers is the number of build workers actually used.
	Workers int
	// Pairs is the number of conflicting pairs enumerated across objects,
	// before deduplication (two transactions sharing two objects count
	// twice).
	Pairs int64
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
	// 1 forces the serial path. The built graph is byte-identical for
	// every worker count.
	Workers int
	// Index supplies the object → member-transaction source to enumerate
	// conflicts from. Nil uses the instance's own cached Index(). Callers
	// with an evolving member set (the windows extension) pass their
	// incrementally maintained *tm.ConflictIndex here; the hierarchical
	// scheduler passes one tm.ShardView per subtree so each shard's build
	// sees only its own members without copying the index.
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
// The build runs in two passes. Pass one shards the objects of the
// conflict index across workers; each worker enumerates, for its objects,
// every pair of member transactions (restricted to ids) into a private
// buffer, and counts the pairs' row degrees. Pass two lays the pairs out
// as CSR via a counting sort — per-row offsets are derived from the
// per-worker degree counts, so workers scatter concurrently without
// synchronization — then sorts and deduplicates each row and fills in
// edge weights from the instance metric. Sorting rows makes the result
// independent of enumeration order: the same instance yields identical
// CSR bytes, h_max, and Δ at every worker count.
func BuildOpts(in *tm.Instance, ids []tm.TxnID, opt Options) *DepGraph {
	start := time.Now()
	if ids == nil {
		ids = make([]tm.TxnID, in.NumTxns())
		for i := range ids {
			ids[i] = tm.TxnID(i)
		}
	}
	n := len(ids)
	h := &DepGraph{IDs: ids}

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
	w := index.NumObjects()
	if workers > w && w > 0 {
		workers = w
	}
	if workers < 1 {
		workers = 1
	}

	// Local-index lookup: localOf[id] = member index, or −1.
	localOf := make([]int32, in.NumTxns())
	for i := range localOf {
		localOf[i] = -1
	}
	for i, id := range ids {
		localOf[id] = int32(i)
	}

	// Pass 1: enumerate conflict pairs per object shard.
	type pair struct{ a, b int32 } // a < b, local indices
	bufs := make([][]pair, workers)
	degs := make([][]int32, workers) // per-worker per-row pair counts
	runShards(workers, w, func(shard, lo, hi int) {
		var buf []pair
		deg := make([]int32, n)
		var scratch []int32
		for o := lo; o < hi; o++ {
			members := index.Members(tm.ObjectID(o))
			scratch = scratch[:0]
			for _, id := range members {
				if li := localOf[id]; li >= 0 {
					scratch = append(scratch, li)
				}
			}
			for x := 0; x < len(scratch); x++ {
				for y := x + 1; y < len(scratch); y++ {
					a, b := scratch[x], scratch[y]
					if a > b {
						a, b = b, a
					}
					buf = append(buf, pair{a, b})
					deg[a]++
					deg[b]++
				}
			}
		}
		bufs[shard] = buf
		degs[shard] = deg
	})

	// Counting sort: per-row offsets, with each worker's slots reserved in
	// shard order so the scatter needs no synchronization.
	var pairs int64
	for _, buf := range bufs {
		pairs += int64(len(buf))
	}
	h.info = BuildInfo{Workers: workers, Pairs: pairs}
	rowStart := make([]int32, n+1)
	var total int64
	for i := 0; i < n; i++ {
		rowStart[i] = int32(total)
		for _, deg := range degs {
			total += int64(deg[i])
		}
	}
	if total != 2*pairs {
		panic("depgraph: pair accounting mismatch")
	}
	if total > int64(1)<<31-1 {
		panic(fmt.Sprintf("depgraph: %d directed pair slots overflow the CSR int32 layout", total))
	}
	rowStart[n] = int32(total)
	// cursors[shard] = next free slot per row for that shard.
	cursors := make([][]int32, workers)
	for shard := range cursors {
		cur := make([]int32, n)
		for i := 0; i < n; i++ {
			off := rowStart[i]
			for s := 0; s < shard; s++ {
				off += degs[s][i]
			}
			cur[i] = off
		}
		cursors[shard] = cur
	}
	tmpNbr := make([]int32, total)
	runShards(workers, workers, func(_, lo, hi int) {
		for shard := lo; shard < hi; shard++ {
			cur := cursors[shard]
			for _, p := range bufs[shard] {
				tmpNbr[cur[p.a]] = p.b
				cur[p.a]++
				tmpNbr[cur[p.b]] = p.a
				cur[p.b]++
			}
		}
	})

	// Pass 2a: sort + dedup each row in place; record final degrees.
	finalDeg := make([]int32, n)
	runShards(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := tmpNbr[rowStart[i]:rowStart[i+1]]
			slices.Sort(row)
			d := 0
			for j := range row {
				if j == 0 || row[j] != row[j-1] {
					row[d] = row[j]
					d++
				}
			}
			finalDeg[i] = int32(d)
		}
	})

	// Pass 2b: compact into the final CSR and compute weights, h_max, Δ.
	h.rowStart = make([]int32, n+1)
	var edges2 int64
	for i := 0; i < n; i++ {
		h.rowStart[i] = int32(edges2)
		edges2 += int64(finalDeg[i])
	}
	h.rowStart[n] = int32(edges2)
	h.info.Edges = edges2 / 2
	h.nbr = make([]int32, edges2)
	h.wt = make([]int64, edges2)
	hmaxs := make([]int64, workers)
	mdegs := make([]int, workers)
	runShards(workers, n, func(shard, lo, hi int) {
		var hmax int64
		mdeg := 0
		for i := lo; i < hi; i++ {
			src := tmpNbr[rowStart[i] : rowStart[i]+finalDeg[i]]
			dst := int(h.rowStart[i])
			ui := in.Txns[ids[i]].Node
			copy(h.nbr[dst:], src)
			for k, j := range src {
				wgt := in.Dist(ui, in.Txns[ids[j]].Node)
				h.wt[dst+k] = wgt
				if wgt > hmax {
					hmax = wgt
				}
			}
			if d := len(src); d > mdeg {
				mdeg = d
			}
		}
		hmaxs[shard] = hmax
		mdegs[shard] = mdeg
	})
	for shard := 0; shard < workers; shard++ {
		if hmaxs[shard] > h.hmax {
			h.hmax = hmaxs[shard]
		}
		if mdegs[shard] > h.mdeg {
			h.mdeg = mdegs[shard]
		}
	}
	h.info.Duration = time.Since(start)
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
			// (degree buffers) exists for every shard index.
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
	var pairs int64
	for _, members := range byObject {
		for x := 0; x < len(members); x++ {
			for y := x + 1; y < len(members); y++ {
				i, j := members[x], members[y]
				pairs++
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
	h.info = BuildInfo{Workers: 1, Pairs: pairs, Edges: total / 2, Duration: time.Since(start)}
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
// node IDs — the deterministic default order used by the schedulers.
func (h *DepGraph) OrderByNode(in *tm.Instance) []int {
	order := make([]int, len(h.IDs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return in.Txns[h.IDs[order[a]]].Node < in.Txns[h.IDs[order[b]]].Node
	})
	return order
}

// OrderByColor returns local indices sorted by (color[i], transaction ID)
// — the deterministic list-scheduling order of the pipelined window and
// streaming schedulers.
func (h *DepGraph) OrderByColor(color []int64) []int {
	order := make([]int, len(h.IDs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if color[order[a]] != color[order[b]] {
			return color[order[a]] < color[order[b]]
		}
		return h.IDs[order[a]] < h.IDs[order[b]]
	})
	return order
}
