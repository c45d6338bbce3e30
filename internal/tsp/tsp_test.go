package tsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dtmsched/internal/graph"
)

// lineMetric is |u−v|: walks and tours have obvious closed forms.
type lineMetric struct{}

func (lineMetric) Dist(u, v graph.NodeID) int64 {
	d := int64(u) - int64(v)
	if d < 0 {
		d = -d
	}
	return d
}

// gridMetric is the Manhattan metric of a side×side grid, node u at
// (u mod side, u div side).
type gridMetric int

func (side gridMetric) Dist(u, v graph.NodeID) int64 {
	s := graph.NodeID(side)
	return lineMetric{}.Dist(u%s, v%s) + lineMetric{}.Dist(u/s, v/s)
}

func TestWalkOnLine(t *testing.T) {
	m := lineMetric{}
	// home 5, sites 2 and 9: best is 5→2→9 or 5→9→2: min(3+7, 4+7) = 10.
	b := new(Solver).Walk(m, 5, []graph.NodeID{2, 9})
	if !b.Exact || b.LB != 10 || b.UB != 10 {
		t.Fatalf("Walk = %+v, want exact 10", b)
	}
}

func TestWalkTrivialCases(t *testing.T) {
	m := lineMetric{}
	if b := new(Solver).Walk(m, 3, nil); !b.Exact || b.LB != 0 {
		t.Fatalf("empty walk = %+v", b)
	}
	if b := new(Solver).Walk(m, 3, []graph.NodeID{3}); !b.Exact || b.LB != 0 {
		t.Fatalf("walk to home only = %+v", b)
	}
	if b := new(Solver).Walk(m, 3, []graph.NodeID{7, 7, 3}); !b.Exact || b.LB != 4 {
		t.Fatalf("walk with dups = %+v, want 4", b)
	}
}

func TestTourOnLine(t *testing.T) {
	m := lineMetric{}
	// Tour over {1, 4, 9}: span is 8, closed tour = 16.
	b := new(Solver).Tour(m, []graph.NodeID{4, 1, 9})
	if !b.Exact || b.LB != 16 {
		t.Fatalf("Tour = %+v, want exact 16", b)
	}
	if b := new(Solver).Tour(m, []graph.NodeID{5}); b.LB != 0 || !b.Exact {
		t.Fatalf("singleton tour = %+v", b)
	}
	if b := new(Solver).Tour(m, []graph.NodeID{2, 6}); b.LB != 8 || !b.Exact {
		t.Fatalf("pair tour = %+v, want 8", b)
	}
}

func TestMSTWeightHandComputed(t *testing.T) {
	m := lineMetric{}
	// Sites 0, 4, 10: MST edges 0-4 (4) and 4-10 (6).
	if w := new(Solver).WalkLB(m, 10, []graph.NodeID{0, 4}); w != 10 {
		t.Fatalf("WalkLB = %d, want 10", w)
	}
	if w := new(Solver).WalkLB(m, 3, nil); w != 0 {
		t.Fatalf("single-site MST = %d", w)
	}
}

// bruteWalk enumerates all orders of sites (small q only): the shortest
// walk from home through them, or with closed the shortest tour that
// also returns to home.
func bruteWalk(m graph.Metric, home graph.NodeID, sites []graph.NodeID, closed bool) int64 {
	best := int64(1) << 60
	perm := make([]graph.NodeID, len(sites))
	copy(perm, sites)
	var rec func(i int)
	rec = func(i int) {
		if i == len(perm) {
			var total int64
			cur := home
			for _, v := range perm {
				total += m.Dist(cur, v)
				cur = v
			}
			if closed {
				total += m.Dist(cur, home)
			}
			if total < best {
				best = total
			}
			return
		}
		for j := i; j < len(perm); j++ {
			perm[i], perm[j] = perm[j], perm[i]
			rec(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	rec(0)
	return best
}

// randomGraphMetric builds a random connected weighted graph and exposes
// its shortest-path metric plus some random sites.
func randomGraphMetric(r *rand.Rand, n int) (*graph.Graph, []graph.NodeID) {
	g := graph.New(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[r.Intn(i)]), 1+r.Int63n(5))
	}
	q := 2 + r.Intn(6)
	sites := make([]graph.NodeID, q)
	for i := range sites {
		sites[i] = graph.NodeID(r.Intn(n))
	}
	return g, sites
}

func TestHeldKarpMatchesBruteForceProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, sites := randomGraphMetric(r, 4+r.Intn(10))
		home := graph.NodeID(r.Intn(g.NumNodes()))
		b := new(Solver).Walk(g, home, sites)
		if !b.Exact {
			return false
		}
		want := bruteWalk(g, home, dedupe(sites, home), false)
		if len(dedupe(sites, home)) == 0 {
			want = 0
		}
		if b.LB != want {
			return false
		}
		// Tours: randomGraphMetric draws at most 7 sites.
		uniq := dedupe(sites, -1)
		tour := new(Solver).Tour(g, sites)
		want = 0
		if len(uniq) > 1 {
			want = bruteWalk(g, uniq[0], uniq[1:], true)
		}
		return tour.Exact && tour.LB == want && tour.UB == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTourBoundsOrderingProperty(t *testing.T) {
	// For any site set: MST ≤ tour LB ≤ tour UB ≤ 2·MST-ish; and the
	// closed tour is at least the open walk from any of its sites.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, sites := randomGraphMetric(r, 4+r.Intn(12))
		b := new(Solver).Tour(g, sites)
		if b.LB > b.UB {
			return false
		}
		uniq := dedupe(sites, -1)
		if len(uniq) < 2 {
			return b.LB == 0
		}
		mst := new(Solver).WalkLB(g, uniq[0], uniq[1:])
		return b.LB >= mst && b.UB <= 2*mst+1 || b.Exact
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeSetUsesBounds(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := graph.New(60)
	perm := r.Perm(60)
	for i := 1; i < 60; i++ {
		g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[r.Intn(i)]), 1+r.Int63n(4))
	}
	sites := make([]graph.NodeID, ExactLimit+10)
	for i := range sites {
		sites[i] = graph.NodeID(r.Intn(60))
	}
	w := new(Solver).Walk(g, 0, sites)
	if w.Exact {
		t.Fatal("large walk claimed exact")
	}
	if w.LB > w.UB || w.LB <= 0 {
		t.Fatalf("large walk bounds broken: %+v", w)
	}
	uniq := dedupe(sites, 0)
	mst := new(Solver).WalkLB(g, 0, uniq)
	if w.LB != mst {
		t.Fatalf("large walk LB %d != MST %d", w.LB, mst)
	}
	if w.UB > 2*mst {
		t.Fatalf("large walk UB %d exceeds 2·MST %d", w.UB, 2*mst)
	}
	tour := new(Solver).Tour(g, sites)
	if tour.Exact || tour.LB > tour.UB {
		t.Fatalf("large tour bounds broken: %+v", tour)
	}
}

func TestTwoOptImprovesCrossing(t *testing.T) {
	// On a line, the NN path from home=0 over {10, 1, 11, 2} may zigzag;
	// 2-opt must bring it to the optimal monotone sweep.
	var s Solver
	sites := []graph.NodeID{10, 1, 11, 2}
	s.fillPairwise(lineMetric{}, 0, sites)
	var path []graph.NodeID
	for _, i := range twoOptPath(s.dt, len(sites)+1, []int32{1, 2, 3, 4}) {
		path = append(path, sites[i-1])
	}
	if got := pathLen(lineMetric{}, 0, path); got != 11 {
		t.Fatalf("2-opt path length = %d, want 11 (0→1→2→10→11)", got)
	}
}

// refHeuristicPath is the metric form of the bracket's upper end, the
// reference for the matrix search: nearest-neighbour from start over a
// pool that loses each pick to a swap with its last entry, then 2-opt
// for at most 32 rounds, every distance a metric query in the same
// argument order.
func refHeuristicPath(m graph.Metric, start graph.NodeID, sites []graph.NodeID) []graph.NodeID {
	rest := slices.Clone(sites)
	var path []graph.NodeID
	for cur := start; len(rest) > 0; {
		bi, bd := 0, m.Dist(cur, rest[0])
		for i := 1; i < len(rest); i++ {
			if d := m.Dist(cur, rest[i]); d < bd {
				bi, bd = i, d
			}
		}
		cur = rest[bi]
		path = append(path, cur)
		rest[bi] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
	}
	n := len(path)
	if n < 3 {
		return path
	}
	prev := func(i int) graph.NodeID {
		if i == 0 {
			return start
		}
		return path[i-1]
	}
	improved := true
	for rounds := 0; improved && rounds < 32; rounds++ {
		improved = false
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				oldCost := m.Dist(prev(i), path[i])
				newCost := m.Dist(prev(i), path[j])
				if j+1 < n {
					oldCost += m.Dist(path[j], path[j+1])
					newCost += m.Dist(path[i], path[j+1])
				}
				if newCost < oldCost {
					slices.Reverse(path[i : j+1])
					improved = true
				}
			}
		}
	}
	return path
}

// TestHeuristicMatchesMetricReference pins the matrix form of the
// bracket's upper end to the metric form it replaced: on grid, graph and
// asymmetric metrics, for 2..60 sites, the matrix path visits the sites
// in the reference's order, and Bracket and Tour (above ExactLimit) report
// the reference's bounds.
func TestHeuristicMatchesMetricReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const n = 80
	g, _ := randomGraphMetric(r, n)
	skew := make(graph.MatrixMetric, n)
	for u := range skew {
		skew[u] = make([]int64, n)
		for v := range skew[u] {
			if u != v {
				skew[u][v] = 1 + r.Int63n(50)
			}
		}
	}
	var s Solver
	for _, mt := range []struct {
		name string
		m    graph.Metric
	}{{"grid", gridMetric(9)}, {"graph", g}, {"skew", skew}} {
		for trial := 0; trial < 40; trial++ {
			q := 2 + r.Intn(59)
			nodes := make([]graph.NodeID, q+1)
			for i, v := range r.Perm(n)[:q+1] {
				nodes[i] = graph.NodeID(v)
			}
			home, sites := nodes[0], nodes[1:]
			ref := refHeuristicPath(mt.m, home, sites)
			length, last := s.heuristicPath(mt.m, home, sites)
			for i, v := range s.path {
				if sites[v-1] != ref[i] {
					t.Fatalf("%s q=%d: step %d visits %d, reference %d", mt.name, q, i, sites[v-1], ref[i])
				}
			}
			if want := pathLen(mt.m, home, ref); length != want || sites[last-1] != ref[len(ref)-1] {
				t.Fatalf("%s q=%d: length %d ending at %d, reference %d ending at %d",
					mt.name, q, length, sites[last-1], want, ref[len(ref)-1])
			}
			mst := new(Solver).WalkLB(mt.m, home, sites)
			if got, want := s.Bracket(mt.m, home, sites), (Bounds{LB: mst, UB: min(pathLen(mt.m, home, ref), 2*mst)}); got.LB != want.LB || got.UB != want.UB {
				t.Fatalf("%s q=%d: Bracket %+v, reference %+v", mt.name, q, got, want)
			}
			if q <= ExactLimit {
				continue
			}
			tourRef := refHeuristicPath(mt.m, nodes[1], nodes[2:])
			tourUB := mt.m.Dist(nodes[1], tourRef[len(tourRef)-1]) + pathLen(mt.m, nodes[1], tourRef)
			tourMST := new(Solver).WalkLB(mt.m, nodes[1], nodes[2:])
			if got := s.Tour(mt.m, sites); got.LB != tourMST || got.UB != min(tourUB, 2*tourMST) {
				t.Fatalf("%s q=%d: Tour %+v, reference [%d, %d]", mt.name, q, got, tourMST, min(tourUB, 2*tourMST))
			}
		}
	}
}

// pathLen is the length of the walk from home along path.
func pathLen(m graph.Metric, home graph.NodeID, path []graph.NodeID) int64 {
	var total int64
	cur := home
	for _, v := range path {
		total += m.Dist(cur, v)
		cur = v
	}
	return total
}

// dedupe removes duplicates and (when skip ≥ 0) any site equal to skip:
// the map-based reference for Solver.Distinct.
func dedupe(sites []graph.NodeID, skip graph.NodeID) []graph.NodeID {
	seen := make(map[graph.NodeID]struct{}, len(sites))
	out := make([]graph.NodeID, 0, len(sites))
	for _, s := range sites {
		if s == skip {
			continue
		}
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	return out
}

// pushHeldKarp is the push-form Held–Karp DP, the reference for the
// Solver's pull kernel: over an inf-filled table, every reached state
// dp[S][j] extends to each site outside S. d is the row-major distance
// matrix over start ∪ q sites (index 0 is the start, stride q+1); it
// returns the full set's row.
func pushHeldKarp(d []int64, q int) []int64 {
	stride := q + 1
	size := 1 << q
	const inf = int64(math.MaxInt64) / 2
	dp := make([]int64, size*q)
	for i := range dp {
		dp[i] = inf
	}
	for j := 0; j < q; j++ {
		dp[(1<<j)*q+j] = d[j+1]
	}
	full := uint32(size - 1)
	for set := 1; set < size; set++ {
		base := set * q
		rest := full &^ uint32(set)
		for ends := uint32(set); ends != 0; ends &= ends - 1 {
			j := int(bits.TrailingZeros32(ends))
			cur := dp[base+j]
			if cur >= inf {
				continue
			}
			row := d[(j+1)*stride:]
			for rem := rest; rem != 0; rem &= rem - 1 {
				nxt := int(bits.TrailingZeros32(rem))
				if c := cur + row[nxt+1]; c < dp[(set|1<<nxt)*q+nxt] {
					dp[(set|1<<nxt)*q+nxt] = c
				}
			}
		}
	}
	return dp[(size-1)*q:]
}

// rowMajor returns the row-major distance matrix over start ∪ sites.
func rowMajor(m graph.Metric, start graph.NodeID, sites []graph.NodeID) []int64 {
	nodes := append([]graph.NodeID{start}, sites...)
	d := make([]int64, 0, len(nodes)*len(nodes))
	for _, u := range nodes {
		for _, v := range nodes {
			d = append(d, m.Dist(u, v))
		}
	}
	return d
}

// pushWalk and pushTour solve a walk and a tour over distinct sites with
// the push reference.
func pushWalk(m graph.Metric, home graph.NodeID, sites []graph.NodeID) int64 {
	return slices.Min(pushHeldKarp(rowMajor(m, home, sites), len(sites)))
}

func pushTour(m graph.Metric, sites []graph.NodeID) int64 {
	d := rowMajor(m, sites[0], sites[1:])
	best := int64(math.MaxInt64)
	for j, c := range pushHeldKarp(d, len(sites)-1) {
		best = min(best, c+d[(j+1)*len(sites)])
	}
	return best
}

// TestHeldKarpMatchesPushReference pins the pull kernel to the push
// reference for walks over 2..16 sites and tours over 3..16, on line,
// grid, graph-backed and asymmetric weighted metrics (weights around
// 1e12 in the last). One Solver serves a shuffled sequence of sizes, so
// the uninitialised table is entered both fresh and holding the rows of
// an earlier, larger solve.
func TestHeldKarpMatchesPushReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 40
	g := graph.New(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[r.Intn(i)]), 1+r.Int63n(1e6))
	}
	for e := 0; e < n; e++ {
		if u, v := r.Intn(n), r.Intn(n); u != v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1+r.Int63n(1e6))
		}
	}
	heavy := make(graph.MatrixMetric, n)
	for u := range heavy {
		heavy[u] = make([]int64, n)
		for v := range heavy[u] {
			if u != v {
				heavy[u][v] = 1e12 + r.Int63n(1e9)
			}
		}
	}
	metrics := []struct {
		name  string
		m     graph.Metric
		nodes int
	}{
		{"line", lineMetric{}, n},
		{"grid", gridMetric(12), 144},
		{"graph", g, n},
		{"heavy", heavy, n},
	}
	var qs []int
	for q := 2; q <= ExactLimit; q++ {
		qs = append(qs, q, q)
	}
	r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	var s Solver
	for _, q := range qs {
		for _, mt := range metrics {
			nodes := make([]graph.NodeID, q+1)
			for i, v := range r.Perm(mt.nodes)[:q+1] {
				nodes[i] = graph.NodeID(v)
			}
			home, sites := nodes[0], nodes[1:]
			if got, want := s.Walk(mt.m, home, sites), pushWalk(mt.m, home, sites); !got.Exact || got.LB != want || got.UB != want {
				t.Fatalf("%s walk q=%d: pull %+v, push %d", mt.name, q, got, want)
			}
			if q < 3 {
				continue // a two-site tour is closed-form
			}
			if got, want := s.Tour(mt.m, sites), pushTour(mt.m, sites); !got.Exact || got.LB != want || got.UB != want {
				t.Fatalf("%s tour q=%d: pull %+v, push %d", mt.name, q, got, want)
			}
		}
	}
}

var benchSink Bounds

// BenchmarkHeldKarp times the exact kernel on fixed site sets of a 12×12
// grid: walks over 12, 14 and 16 sites and a tour over 16, each on a
// warm Solver.
func BenchmarkHeldKarp(b *testing.B) {
	var nodes []graph.NodeID
	for _, v := range rand.New(rand.NewSource(1)).Perm(144)[:ExactLimit+1] {
		nodes = append(nodes, graph.NodeID(v))
	}
	grid := gridMetric(12)
	run := func(name string, solve func(*Solver) Bounds) {
		b.Run(name, func(b *testing.B) {
			var s Solver
			solve(&s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = solve(&s)
			}
		})
	}
	for _, q := range []int{12, 14, 16} {
		run(fmt.Sprintf("walk/q=%d", q), func(s *Solver) Bounds { return s.Walk(grid, nodes[0], nodes[1:q+1]) })
	}
	run("tour/q=16", func(s *Solver) Bounds { return s.Tour(grid, nodes[1:]) })
}
