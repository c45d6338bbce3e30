package core

import (
	"math"
	"math/rand"
	"slices"

	"dtmsched/internal/tm"
)

// stallLimit ends a phase or period after this many rounds in a row that
// enable nothing, so persistently unlucky draws cannot spin through the
// (astronomical) ζ cap.
const stallLimit = 5000

// activation is the randomized round that Algorithm 1 (Section 6) and
// Section 7's randomized periods share, over groups of pending
// transactions: the clusters of one phase, or the segments of one period.
// Each round, every object that pending members request activates in one
// of their groups, drawn uniformly at random, and the members whose
// objects all activated in their own group execute as one batch. Its
// state and buffers are reused across rounds and calls. DESIGN.md §4
// lists where it departs from the paper's accounting.
type activation struct {
	in   *tm.Instance
	c    *composer
	rng  *rand.Rand
	zeta int64 // ζ, the round cap of one call

	group   []int32 // per transaction: its group in the current call, or −1
	active  []int32 // per object: the group it activated in this round, or −1
	seen    []bool  // per group: already among the current object's choices
	choices []int32
	ids     []tm.TxnID
	local   []int64

	rounds, fallbacks int64
}

// logM returns ln m for m = max(n, w, 2), the paper's instance size.
func logM(in *tm.Instance) float64 {
	return math.Log(float64(max(in.G.NumNodes(), in.NumObjects, 2)))
}

func newActivation(in *tm.Instance, c *composer, rng *rand.Rand) *activation {
	a := &activation{
		in:     in,
		c:      c,
		rng:    rng,
		zeta:   roundCap(max(in.MaxK(), 1), logM(in)),
		group:  make([]int32, in.NumTxns()),
		active: make([]int32, in.NumObjects),
	}
	for i := range a.group {
		a.group[i] = -1
	}
	return a
}

// run executes rounds until the groups are empty, ζ rounds have run, or
// stallLimit rounds in a row enabled nothing, and then list-schedules
// what is left. groups[g] lists group g's pending members in sweep order
// and is filtered in place; the draw picks among group indices in
// ascending order. at[id] is member id's local time in its group's batch;
// a nil at runs a group's enabled members on consecutive steps.
func (a *activation) run(groups [][]tm.TxnID, at []int64) {
	pending := 0
	for g, ms := range groups {
		pending += len(ms)
		for _, id := range ms {
			a.group[id] = int32(g)
		}
	}
	if len(a.seen) < len(groups) {
		a.seen = make([]bool, len(groups))
	}
	index := a.in.Index()
	for round, stall := int64(0), 0; pending > 0 && round < a.zeta && stall < stallLimit; round++ {
		a.rounds++
		for o := range a.active {
			choices := a.choices[:0]
			for _, id := range index.Members(tm.ObjectID(o)) {
				if g := a.group[id]; g >= 0 && !a.seen[g] {
					a.seen[g] = true
					choices = append(choices, g)
				}
			}
			a.active[o] = -1
			if len(choices) > 0 {
				for _, g := range choices {
					a.seen[g] = false
				}
				slices.Sort(choices)
				a.active[o] = choices[a.rng.Intn(len(choices))]
			}
			a.choices = choices
		}

		ids, local := a.ids[:0], a.local[:0]
		for g, ms := range groups {
			still := ms[:0]
			var pos int64
			for _, id := range ms {
				if !a.enabled(id, int32(g)) {
					still = append(still, id)
					continue
				}
				pos++
				t := pos
				if at != nil {
					t = at[id]
				}
				ids, local = append(ids, id), append(local, t)
				a.group[id] = -1
				pending--
			}
			groups[g] = still
		}
		a.ids, a.local = ids, local
		if len(ids) > 0 {
			a.c.appendBatch(ids, local)
			stall = 0
		} else {
			stall++
		}
	}

	for g, ms := range groups {
		for _, id := range ms {
			a.fallbacks++
			a.group[id] = -1
			a.c.appendOne(id)
		}
		groups[g] = ms[:0]
	}
}

// enabled reports whether every object of transaction id activated in
// group g this round.
func (a *activation) enabled(id tm.TxnID, g int32) bool {
	for _, o := range a.in.Txns[id].Objects {
		if a.active[o] != g {
			return false
		}
	}
	return true
}

// roundCap computes ζ = 2·40^k·⌈ln^(k+1) m⌉, clamped to a practical
// ceiling (the cap only matters as a safety net; phases end when their
// transactions finish).
func roundCap(k int, lnM float64) int64 {
	z := 2 * math.Pow(40, float64(k)) * math.Ceil(math.Pow(lnM, float64(k+1)))
	if z > 1e9 || math.IsInf(z, 0) || math.IsNaN(z) {
		return 1 << 30
	}
	if z < 1 {
		return 1
	}
	return int64(z)
}
