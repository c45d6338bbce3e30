// Package congestion addresses the paper's second open question (Section
// 9): the impact of bounded link capacity. The base model lets unlimited
// objects cross an edge concurrently; here a schedule's object movements
// are replayed hop by hop with at most Capacity objects occupying an edge
// at once, objects queueing FCFS when a link is full, and transactions
// executing as soon as their (possibly delayed) objects assemble.
//
// The replay preserves the schedule's commit order per object, so the
// result is a *dilation* measurement: how much longer the same logical
// schedule takes when the network can actually be congested.
package congestion

import (
	"container/heap"
	"fmt"
	"sort"

	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
)

// Result reports one congestion-limited replay.
type Result struct {
	// Capacity is the per-edge concurrent-object limit replayed under.
	Capacity int
	// Makespan is the dilated completion step.
	Makespan int64
	// IdealMakespan is the makespan of the same replay with unlimited
	// capacity (the base model), for direct dilation comparison.
	IdealMakespan int64
	// Dilation is Makespan / IdealMakespan.
	Dilation float64
	// MaxQueue is the largest number of objects simultaneously waiting
	// on a single link.
	MaxQueue int
	// Waits is the total number of object·steps spent blocked on full
	// links.
	Waits int64
}

type edgeKey struct {
	u, v graph.NodeID
}

func keyOf(u, v graph.NodeID) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// releaseHeap tracks when in-flight traversals free their edge slot.
type releaseHeap []int64

func (h releaseHeap) Len() int            { return len(h) }
func (h releaseHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h releaseHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x interface{}) { *h = append(*h, x.(int64)) }
func (h *releaseHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Replay runs schedule s on instance in with per-edge capacity cap ≥ 1.
// Paths are the communication graph's shortest paths (the metric oracle is
// not used: congestion is inherently a per-link phenomenon).
func Replay(in *tm.Instance, s *schedule.Schedule, cap int) (*Result, error) {
	if cap < 1 {
		return nil, fmt.Errorf("congestion: capacity %d < 1", cap)
	}
	if len(s.Times) != in.NumTxns() {
		return nil, fmt.Errorf("congestion: schedule has %d times for %d transactions", len(s.Times), in.NumTxns())
	}
	makespan, maxQueue, waits, err := replay(in, s, cap)
	if err != nil {
		return nil, err
	}
	ideal, _, _, err := replay(in, s, 0) // 0 = unlimited
	if err != nil {
		return nil, err
	}
	res := &Result{
		Capacity:      cap,
		Makespan:      makespan,
		IdealMakespan: ideal,
		MaxQueue:      maxQueue,
		Waits:         waits,
	}
	if ideal > 0 {
		res.Dilation = float64(makespan) / float64(ideal)
	}
	return res, nil
}

// replay is the hop-by-hop engine; cap == 0 means unlimited capacity.
func replay(in *tm.Instance, s *schedule.Schedule, cap int) (makespan int64, maxQueue int, waits int64, err error) {
	m := in.NumTxns()

	// Per-object itinerary (requesters in schedule order) and hop path
	// for the current leg. Timing matches the base model: an object
	// released at the end of step t and d away is usable at step t+d, so
	// a weight-w edge entered at step s occupies steps s…s+w−1 and the
	// object may use / leave the far endpoint at step s+w−1 / s+w.
	type objState struct {
		itinerary []tm.TxnID
		leg       int            // index into itinerary of the current destination
		path      []graph.NodeID // remaining nodes of the current leg (path[0] = current)
		moving    bool           // true when released toward itinerary[leg]
		arrivedAt int64          // step the object is usable at its destination (−1 while moving)
		entered   int64          // step the object entered its current edge (−1 if idle at path[0])
	}
	objs := make([]objState, in.NumObjects)
	h := s.Handoffs(in)
	for o := range objs {
		objs[o] = objState{itinerary: h.Of(tm.ObjectID(o)), arrivedAt: -1, entered: -1}
	}

	// Edge occupancy.
	busy := make(map[edgeKey]*releaseHeap)
	occupancy := func(k edgeKey, step int64) int {
		h, ok := busy[k]
		if !ok {
			return 0
		}
		for h.Len() > 0 && (*h)[0] <= step {
			heap.Pop(h)
		}
		return h.Len()
	}

	// startLeg points the object toward its next itinerary stop.
	startLeg := func(o int, from graph.NodeID, step int64) {
		st := &objs[o]
		st.arrivedAt = -1
		st.entered = -1
		st.moving = false
		if st.leg >= len(st.itinerary) {
			return
		}
		dest := in.Txns[st.itinerary[st.leg]].Node
		if dest == from {
			st.arrivedAt = step
			return
		}
		st.path = in.G.Path(from, dest)
		st.moving = true
	}

	// Release every object from home toward its first requester.
	for o := 0; o < in.NumObjects; o++ {
		if len(objs[o].itinerary) > 0 {
			startLeg(o, in.Home[o], 0)
		}
	}

	executed := make([]bool, m)
	remaining := m
	// A conservative horizon: every hop can be delayed by at most all
	// other objects traversing the same edge.
	horizon := s.Makespan() * int64(in.NumObjects+2) * (in.G.MaxEdgeWeight() + 1)
	if horizon < 64 {
		horizon = 64
	}

	ids := make([]int, in.NumObjects)
	for i := range ids {
		ids[i] = i
	}

	for step := int64(1); remaining > 0; step++ {
		if step > horizon {
			return 0, 0, 0, fmt.Errorf("congestion: replay exceeded horizon %d with %d transactions pending", horizon, remaining)
		}
		// 1. Advance moving objects (FCFS in object-ID order: a fixed,
		// fair arbitration).
		sort.Ints(ids)
		for _, o := range ids {
			st := &objs[o]
			if !st.moving {
				continue
			}
			// Complete an in-flight hop once its traversal steps elapsed.
			if st.entered >= 0 {
				w, _ := in.G.HasEdge(st.path[0], st.path[1])
				if step < st.entered+w {
					continue // still traversing (or resting at the far end)
				}
				st.path = st.path[1:]
				st.entered = -1
				if len(st.path) == 1 {
					st.moving = false
					continue // arrivedAt was set when entering this final edge
				}
			}
			// Try to enter the next edge.
			k := keyOf(st.path[0], st.path[1])
			w, ok := in.G.HasEdge(st.path[0], st.path[1])
			if !ok {
				return 0, 0, 0, fmt.Errorf("congestion: path uses missing edge %d-%d", st.path[0], st.path[1])
			}
			if cap > 0 {
				occ := occupancy(k, step)
				if occ >= cap {
					waits++
					if q := occ + 1; q > maxQueue {
						maxQueue = q
					}
					continue
				}
				h, okh := busy[k]
				if !okh {
					h = &releaseHeap{}
					busy[k] = h
				}
				heap.Push(h, step+w)
			}
			st.entered = step
			if len(st.path) == 2 {
				// Final hop: usable at the destination on its last
				// in-transit step, matching t' ≥ t + d.
				st.arrivedAt = step + w - 1
			}
		}
		// 2. Execute transactions whose objects have all arrived.
		for i := 0; i < m; i++ {
			if executed[i] {
				continue
			}
			ready := true
			for _, o := range in.Txns[i].Objects {
				st := &objs[o]
				if st.leg >= len(st.itinerary) || st.itinerary[st.leg] != tm.TxnID(i) ||
					st.arrivedAt < 0 || st.arrivedAt > step {
					ready = false
					break
				}
			}
			if len(in.Txns[i].Objects) == 0 {
				// Object-free transactions follow their scheduled step.
				ready = step >= s.Times[i]
			}
			if !ready {
				continue
			}
			executed[i] = true
			remaining--
			if step > makespan {
				makespan = step
			}
			for _, o := range in.Txns[i].Objects {
				st := &objs[o]
				st.leg++
				startLeg(int(o), in.Txns[i].Node, step)
			}
		}
	}
	return makespan, maxQueue, waits, nil
}
