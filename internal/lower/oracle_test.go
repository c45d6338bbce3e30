package lower

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
)

// zooInstances builds one instance per topology family, covering both
// graph-backed and closed-form metrics plus the > tsp.ExactLimit
// MST-bounded case (the single-object workload funnels every transaction
// onto one object).
func zooInstances(t testing.TB) []*tm.Instance {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	var out []*tm.Instance
	build := func(g *graph.Graph, m graph.Metric, w, k int) {
		in := tm.UniformK(w, k).Generate(r, g, m, g.Nodes(), tm.PlaceAtRandomUser)
		out = append(out, in)
	}
	build(topology.NewClique(24).Graph(), nil, 6, 2)
	build(topology.NewLine(30).Graph(), nil, 8, 2)
	build(topology.NewSquareGrid(5).Graph(), nil, 6, 3)
	c := topology.NewCluster(3, 4, 9)
	build(c.Graph(), graph.FuncMetric(c.Dist), 4, 2)
	s := topology.NewStar(4, 5)
	build(s.Graph(), graph.FuncMetric(s.Dist), 5, 2)
	// One object requested by every transaction: 40 sites exceed
	// tsp.ExactLimit, so the walk is only bounded by its MST.
	big := topology.NewSquareGrid(7).Graph()
	out = append(out, tm.UniformK(1, 1).Generate(r, big, nil, big.Nodes(), tm.PlaceAtRandomUser))
	return out
}

// TestValueWitnessFree: the value path must skip PerObject, the tours
// and the walk upper ends but keep every other scalar identical.
func TestValueWitnessFree(t *testing.T) {
	for i, in := range zooInstances(t) {
		full, fast := Compute(in), Value(in)
		if fast.PerObject != nil {
			t.Errorf("instance %d: witness-free bound has PerObject", i)
		}
		if fast.MaxTourLB != 0 || fast.MaxTourUB != 0 {
			t.Errorf("instance %d: value path solved tours: [%d,%d]", i, fast.MaxTourLB, fast.MaxTourUB)
		}
		if fast.MaxWalkUB != 0 {
			t.Errorf("instance %d: value path reported a walk upper end %d", i, fast.MaxWalkUB)
		}
		if got, want := scalarsOf(fast), scalarsOf(full); got != want {
			t.Errorf("instance %d: witness-free scalars diverged\n want %+v\n  got %+v", i, want, got)
		}
	}
}

// TestOracleConcurrentFirstQuery races many first queries for the same
// instance (run under -race in ci): every caller must observe the same
// bound, and exactly one of them — the publisher — must see a miss.
func TestOracleConcurrentFirstQuery(t *testing.T) {
	for _, in := range zooInstances(t) {
		o := NewOracle()
		want := Value(in)
		const goroutines = 8
		bounds := make([]*Bound, goroutines)
		var misses atomic.Int64
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			go func(g int) {
				defer done.Done()
				start.Wait()
				b, hit := o.Get(in)
				bounds[g] = b
				if !hit {
					misses.Add(1)
				}
			}(g)
		}
		start.Done()
		done.Wait()
		for g, b := range bounds {
			if b == nil {
				t.Fatalf("goroutine %d got nil bound", g)
			}
			if !reflect.DeepEqual(*b, want) {
				t.Fatalf("goroutine %d bound diverged: %+v", g, *b)
			}
		}
		if m := misses.Load(); m != 1 {
			t.Fatalf("%d of %d concurrent first queries reported a miss, want exactly 1", m, goroutines)
		}
	}
}

// TestOracleWarmLookupZeroAllocs: after publication, Get must be a
// pointer load — no allocation, matching the distance-oracle guard.
func TestOracleWarmLookupZeroAllocs(t *testing.T) {
	in := zooInstances(t)[0]
	o := NewOracle()
	first, hit := o.Get(in)
	if hit {
		t.Fatal("first query reported as cache hit")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		b, hit := o.Get(in)
		if !hit || b != first {
			t.Fatal("warm lookup missed the published bound")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm oracle lookup allocates %.1f allocs/op, want 0", allocs)
	}
}

// mapClusterSigma is the original map-per-object implementation, kept as
// the reference the epoch-stamped version is pinned against.
func mapClusterSigma(in *tm.Instance, c *topology.ClusterGraph) int {
	sigma := 0
	for o := 0; o < in.NumObjects; o++ {
		clusters := make(map[int]struct{})
		for _, id := range in.Users(tm.ObjectID(o)) {
			clusters[c.ClusterOf(in.Txns[id].Node)] = struct{}{}
		}
		if len(clusters) > sigma {
			sigma = len(clusters)
		}
	}
	return sigma
}

// mapStarSigma is the original map-per-object StarSigma reference.
func mapStarSigma(in *tm.Instance, s *topology.Star, segIndex int) int {
	segs := s.Segments(segIndex)
	if len(segs) == 0 {
		return 0
	}
	lo, hi := segs[0].Lo, segs[0].Hi
	sigma := 0
	for o := 0; o < in.NumObjects; o++ {
		rays := make(map[int]struct{})
		for _, id := range in.Users(tm.ObjectID(o)) {
			ray, pos := s.RayOf(in.Txns[id].Node)
			if ray >= 0 && pos >= lo && pos <= hi {
				rays[ray] = struct{}{}
			}
		}
		if len(rays) > sigma {
			sigma = len(rays)
		}
	}
	return sigma
}

// TestClusterSigmaMatchesMapReference pins the stamped counter to the map
// version across random cluster workloads.
func TestClusterSigmaMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		c := topology.NewCluster(2+r.Intn(4), 2+r.Intn(4), 5)
		g := c.Graph()
		w := 2 + r.Intn(4)
		in := tm.UniformK(w, 1+r.Intn(2)).Generate(
			r, g, graph.FuncMetric(c.Dist), g.Nodes(), tm.PlaceAtRandomUser)
		if got, want := ClusterSigma(in, c), mapClusterSigma(in, c); got != want {
			t.Fatalf("trial %d: ClusterSigma = %d, map reference = %d", trial, got, want)
		}
	}
}

// TestStarSigmaMatchesMapReference pins the stamped counter to the map
// version across random star workloads and every segment index.
func TestStarSigmaMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		s := topology.NewStar(2+r.Intn(4), 2+r.Intn(5))
		g := s.Graph()
		w := 2 + r.Intn(4)
		in := tm.UniformK(w, 1+r.Intn(2)).Generate(
			r, g, graph.FuncMetric(s.Dist), g.Nodes(), tm.PlaceAtRandomUser)
		for seg := 1; seg <= s.NumSegments(); seg++ {
			if got, want := StarSigma(in, s, seg), mapStarSigma(in, s, seg); got != want {
				t.Fatalf("trial %d seg %d: StarSigma = %d, map reference = %d", trial, seg, got, want)
			}
		}
	}
}
