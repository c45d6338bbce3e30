package graph

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DiameterParallel computes the exact diameter using workers goroutines
// (0 means GOMAXPROCS). Each worker runs single-source shortest paths from a
// disjoint set of sources; trees are not cached, so memory stays O(n) per
// worker. It returns Inf for disconnected graphs.
func (g *Graph) DiameterParallel(workers int) int64 {
	n := len(g.adj)
	if n == 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var (
		next         atomic.Int64
		diam         atomic.Int64
		disconnected atomic.Bool
		wg           sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if int(i) >= n || disconnected.Load() {
					return
				}
				ecc := g.eccUncached(NodeID(i))
				if ecc == Inf {
					disconnected.Store(true)
					return
				}
				for {
					cur := diam.Load()
					if ecc <= cur || diam.CompareAndSwap(cur, ecc) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if disconnected.Load() {
		return Inf
	}
	return diam.Load()
}

// eccUncached computes eccentricity without touching the shared tree cache,
// so parallel workers do not contend on the cache mutex or balloon memory.
func (g *Graph) eccUncached(u NodeID) int64 {
	t := g.ShortestPaths(u)
	var ecc int64
	for _, d := range t.Dist {
		if d == Inf {
			return Inf
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}
