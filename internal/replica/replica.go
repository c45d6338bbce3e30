// Package replica extends the data-flow model with read-only replication,
// the direction of the multi-versioning and replicated distributed TMs the
// paper surveys in Section 1.2 (Manassiev et al., Peluso et al., Kim &
// Ravindran). Transactions declare read and write sets; the single master
// copy of each object still serializes its writers, but a reader only
// needs *a copy* of the latest version committed before it, so readers
// never conflict with each other.
//
// Semantics (snapshot / multi-version):
//
//   - writers of an object form a chain exactly as in the base model:
//     consecutive writers are separated by at least their distance;
//   - a reader must be reachable by a copy of the version it reads: its
//     time is at least the preceding writer's time plus their distance
//     (or the distance from the object's home when no writer precedes);
//   - readers impose nothing on writers or on each other.
//
// The scheduler colors the write-conflict graph (edges only where at
// least one endpoint writes the shared object) with the Section 2.3
// greedy rule, then shifts for initial copy distribution. As the read
// fraction grows, the conflict graph thins and the schedule shortens —
// quantified by experiment E14.
package replica

import (
	"fmt"
	"math/rand"
	"sort"

	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
)

// RWInstance pairs a base instance with per-transaction write sets.
// Objects a transaction requests but does not write are read-only for it.
type RWInstance struct {
	*tm.Instance
	// writes[i] holds the objects transaction i writes (subset of its
	// object set), in a set for O(1) lookup.
	writes []map[tm.ObjectID]struct{}
}

// New wraps an instance with write sets. writes[i] must be a subset of
// transaction i's objects.
func New(in *tm.Instance, writes [][]tm.ObjectID) (*RWInstance, error) {
	if len(writes) != in.NumTxns() {
		return nil, fmt.Errorf("replica: %d write sets for %d transactions", len(writes), in.NumTxns())
	}
	rw := &RWInstance{Instance: in, writes: make([]map[tm.ObjectID]struct{}, len(writes))}
	for i, ws := range writes {
		rw.writes[i] = make(map[tm.ObjectID]struct{}, len(ws))
		for _, o := range ws {
			if !in.Txns[i].Uses(o) {
				return nil, fmt.Errorf("replica: transaction %d writes object %d it does not request", i, o)
			}
			rw.writes[i][o] = struct{}{}
		}
	}
	return rw, nil
}

// WithReadFraction derives write sets randomly: each (transaction,
// object) access is a read with probability readFrac. Fraction 0
// reproduces the base model (everything written).
func WithReadFraction(r *rand.Rand, in *tm.Instance, readFrac float64) *RWInstance {
	if readFrac < 0 || readFrac > 1 {
		panic(fmt.Sprintf("replica: read fraction %v outside [0,1]", readFrac))
	}
	writes := make([][]tm.ObjectID, in.NumTxns())
	for i := range in.Txns {
		for _, o := range in.Txns[i].Objects {
			if r.Float64() >= readFrac {
				writes[i] = append(writes[i], o)
			}
		}
	}
	rw, err := New(in, writes)
	if err != nil {
		panic(err) // unreachable: sets are subsets by construction
	}
	return rw
}

// Writes reports whether transaction id writes object o.
func (rw *RWInstance) Writes(id tm.TxnID, o tm.ObjectID) bool {
	_, ok := rw.writes[id][o]
	return ok
}

// WriteCount returns the total number of write accesses.
func (rw *RWInstance) WriteCount() int {
	n := 0
	for _, ws := range rw.writes {
		n += len(ws)
	}
	return n
}

// writersOf returns object o's writers in handoff order (by schedule
// time, ties by ID).
func (rw *RWInstance) writersOf(h schedule.Handoffs, o tm.ObjectID) []tm.TxnID {
	var out []tm.TxnID
	for _, id := range h.Of(o) {
		if rw.Writes(id, o) {
			out = append(out, id)
		}
	}
	return out
}

// Validate checks feasibility under the multi-version semantics above.
func Validate(rw *RWInstance, s *schedule.Schedule) error {
	if len(s.Times) != rw.NumTxns() {
		return fmt.Errorf("replica: %d times for %d transactions", len(s.Times), rw.NumTxns())
	}
	for i, t := range s.Times {
		if t < 1 {
			return fmt.Errorf("replica: transaction %d at step %d < 1", i, t)
		}
	}
	h := s.Handoffs(rw.Instance)
	for o := 0; o < rw.NumObjects; o++ {
		oid := tm.ObjectID(o)
		writers := rw.writersOf(h, oid)
		// Writer chain: home → w1 → w2 → …
		prevNode := rw.Home[oid]
		prevTime := int64(0)
		for i, wtr := range writers {
			d := rw.Dist(prevNode, rw.Txns[wtr].Node)
			if s.Times[wtr] < prevTime+d {
				return fmt.Errorf("replica: object %d writer %d at step %d cannot receive master from step %d, %d away",
					o, wtr, s.Times[wtr], prevTime, d)
			}
			if i > 0 && s.Times[wtr] == prevTime {
				return fmt.Errorf("replica: object %d has two writers at step %d", o, s.Times[wtr])
			}
			prevNode = rw.Txns[wtr].Node
			prevTime = s.Times[wtr]
		}
		// Readers: copy from the latest writer strictly before them.
		for _, id := range rw.Users(oid) {
			if rw.Writes(id, oid) {
				continue
			}
			srcNode, srcTime := rw.Home[oid], int64(0)
			for _, wtr := range writers {
				if s.Times[wtr] < s.Times[id] {
					srcNode, srcTime = rw.Txns[wtr].Node, s.Times[wtr]
				} else {
					break
				}
			}
			if d := rw.Dist(srcNode, rw.Txns[id].Node); s.Times[id] < srcTime+d {
				return fmt.Errorf("replica: object %d reader %d at step %d cannot receive a copy from step %d, %d away",
					o, id, s.Times[id], srcTime, d)
			}
		}
	}
	return nil
}

// Result pairs a schedule with its accounting.
type Result struct {
	Schedule *schedule.Schedule
	Makespan int64
	// Conflicts is the number of edges in the write-conflict graph
	// (pairs sharing an object that at least one of them writes).
	Conflicts int
}

// Schedule computes a feasible multi-version schedule: greedy Γ+1 coloring
// of the write-conflict graph plus the exact shift needed for master and
// copy distribution from homes.
func Schedule(rw *RWInstance) (*Result, error) {
	m := rw.NumTxns()
	// Build the write-conflict graph directly (depgraph assumes every
	// shared object conflicts; here read-read pairs do not).
	adj := make([]map[int]int64, m)
	for i := range adj {
		adj[i] = make(map[int]int64)
	}
	var hmax int64
	conflicts := 0
	for o := 0; o < rw.NumObjects; o++ {
		users := rw.Users(tm.ObjectID(o))
		for x := 0; x < len(users); x++ {
			for y := x + 1; y < len(users); y++ {
				i, j := int(users[x]), int(users[y])
				if !rw.Writes(users[x], tm.ObjectID(o)) && !rw.Writes(users[y], tm.ObjectID(o)) {
					continue // read-read: no conflict
				}
				if _, dup := adj[i][j]; dup {
					continue
				}
				d := rw.Dist(rw.Txns[i].Node, rw.Txns[j].Node)
				adj[i][j] = d
				adj[j][i] = d
				conflicts++
				if d > hmax {
					hmax = d
				}
			}
		}
	}
	if hmax == 0 {
		hmax = 1
	}
	// Greedy color in node order.
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return rw.Txns[order[a]].Node < rw.Txns[order[b]].Node })
	k := make([]int64, m)
	for i := range k {
		k[i] = -1
	}
	s := schedule.New(m)
	for _, u := range order {
		used := make(map[int64]bool, len(adj[u]))
		for v := range adj[u] {
			if k[v] >= 0 {
				used[k[v]] = true
			}
		}
		var ku int64
		for used[ku] {
			ku++
		}
		k[u] = ku
		s.Times[u] = ku*hmax + 1
	}
	// Shift so every first access can be served from the object's home.
	var delta int64
	for o := 0; o < rw.NumObjects; o++ {
		for _, id := range rw.Users(tm.ObjectID(o)) {
			// Conservative: every access reachable from home directly
			// covers both the first writer and any pre-writer readers.
			if need := rw.Dist(rw.Home[o], rw.Txns[id].Node) - s.Times[id]; need > delta {
				delta = need
			}
		}
	}
	if delta > 0 {
		s.Shift(delta)
	}
	res := &Result{Schedule: s, Makespan: s.Makespan(), Conflicts: conflicts}
	if err := Validate(rw, s); err != nil {
		return nil, fmt.Errorf("replica: scheduler produced infeasible schedule: %w", err)
	}
	return res, nil
}
