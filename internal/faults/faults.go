// Package faults provides deterministic, seed-reproducible fault plans for
// the simulator's self-healing replay (sim.Options.Faults) and the
// engine's robustness sweeps. Every bound in the paper assumes the
// synchronous fault-free model of Section 2.1; this package scripts the
// ways a deployment breaks that model — links slowing down or dropping
// out over step intervals, object moves lost in transit, nodes crashing
// and restarting — so the schedules' makespan and communication-cost loss
// under faults becomes measurable.
//
// All randomness is rooted in an explicit seed (never wall-clock): the same
// seed always yields the same Plan, and a Plan's answers depend only on its
// faults, never on query order. To overlay a scripted fault sequence on a
// rate-generated background, build one plan from both fault lists.
package faults

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
	"dtmsched/internal/xrand"
)

// Forever marks a fault interval that never ends (To == Forever) and is the
// restart step NodeDownUntil reports for a permanently crashed node. The
// simulator treats a dependency on a Forever fault as unrecoverable.
const Forever = int64(math.MaxInt64)

// Kind enumerates fault classes.
type Kind int

// Fault kinds.
const (
	// LinkSlow multiplies the delay of link {U, V} by Factor during
	// [From, To).
	LinkSlow Kind = iota
	// LinkDown removes link {U, V} during [From, To); objects reroute
	// around it on the surviving subgraph.
	LinkDown
	// NodeCrash takes Node down during [From, To): its transactions defer
	// their commits and objects cannot depart from, arrive at, or route
	// through it until the restart.
	NodeCrash
	// MoveDrop loses the Seq-th dispatch of Object in transit; the holder
	// re-dispatches after a bounded exponential backoff.
	MoveDrop
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case LinkSlow:
		return "link-slow"
	case LinkDown:
		return "link-down"
	case NodeCrash:
		return "node-crash"
	case MoveDrop:
		return "move-drop"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one scripted fault.
type Fault struct {
	Kind Kind
	// From and To delimit the active interval [From, To) in simulated
	// steps (LinkSlow, LinkDown, NodeCrash). To == Forever never ends.
	From, To int64
	// U and V are the link endpoints (LinkSlow, LinkDown); order is
	// irrelevant.
	U, V graph.NodeID
	// Node is the crash target (NodeCrash).
	Node graph.NodeID
	// Object and Seq select a dispatch to lose (MoveDrop): Seq counts the
	// object's dispatch attempts over the whole run, 0-based.
	Object tm.ObjectID
	Seq    int
	// Factor is the LinkSlow delay multiplier (≥ 2).
	Factor int64
}

// MaxLinkFactor caps the product of overlapping slowdowns. Without the
// cap enough overlapping factors wrap the int64 product to zero (a slowed
// link would read as down) or to a negative value. Generated plans never
// come near it: their products stay below a few thousand.
const MaxLinkFactor = int64(1) << 30

// mulFactor multiplies two link factors ≥ 1, saturating at MaxLinkFactor.
// The result is min(a·b, MaxLinkFactor), so a saturated product does not
// depend on the order its factors arrive in.
func mulFactor(a, b int64) int64 {
	if b > MaxLinkFactor/a {
		return MaxLinkFactor
	}
	return a * b
}

// span is a half-open step interval.
type span struct{ from, to int64 }

// linkSpan is a span with a link delay multiplier (0 = down).
type linkSpan struct {
	span
	factor int64
}

// linkKey is an unordered node pair.
type linkKey struct{ u, v graph.NodeID }

func mkLinkKey(u, v graph.NodeID) linkKey {
	if u > v {
		u, v = v, u
	}
	return linkKey{u, v}
}

// dropKey selects one dispatch of one object.
type dropKey struct {
	obj tm.ObjectID
	seq int
}

// linkStep is one entry of a link's factor timeline: the link's delay
// multiplier from step at until the next entry's at (forever after the
// last entry, and 1 before the first).
type linkStep struct{ at, factor int64 }

// filterSlack is the filter's word allowance on top of one 64-bit word
// per interval fault (see buildFilter).
const filterSlack = 64

// Plan is the fault state a faulty simulation consults: a fixed fault
// list with precomputed lookups, plus an optional probabilistic
// per-dispatch drop rate resolved by seeded hashing (deterministic and
// independent of query order). Build one from explicit faults with
// FromFaults or from rates with New. A nil *Plan is a valid, empty plan.
//
// A plan never changes once built, so engine jobs may share one without
// locking, and its interval lookups are flat arrays (DESIGN.md §7).
// Node v's merged crash spans and the factor timeline of every faulted
// link (a CSR keyed by the smaller endpoint) are each found by one binary
// search, behind a health filter: one bitset row per power-of-two bucket
// of steps, with a bit per node and per link that is set when the site is
// anything but healthy somewhere in the bucket. A clear bit answers
// "healthy" without touching the spans. The arrays are sized by the
// largest node ID the plan's interval faults name, as they would be for a
// graph with that many nodes (FromFaults rejects IDs at or past
// math.MaxInt32); queries about IDs outside that range (negative ones
// included) answer healthy.
type Plan struct {
	faults     []Fault
	boundaries []int64

	// nodes is one past the largest node ID an interval fault names.
	nodes int
	// Node v's merged crash spans, sorted, are
	// crashes[crashOff[v]:crashOff[v+1]].
	crashOff []int
	crashes  []span
	// Link CSR: node u's faulted links {u, v} with v > u are
	// linkNbr[linkOff[u]:linkOff[u+1]], ascending in v, and link i's
	// factor timeline is timeline[stepOff[i]:stepOff[i+1]].
	linkOff  []int
	linkNbr  []graph.NodeID
	stepOff  []int
	timeline []linkStep
	// health is the filter, rowWords words per row. Row r covers steps
	// [r<<shift, (r+1)<<shift); steps below 0 read row 0, and steps past
	// the last row's start read the last row (the state is final from
	// the last boundary on, which lies in it). Bit v is node v; bit
	// nodes+i is link i.
	health   []uint64
	rowWords int
	shift    uint
	lastRow  int64

	drops    map[dropKey]struct{}
	dropRate float64
	dropSeed int64
}

// FromFaults builds a plan from an explicit fault script. Faults are
// validated: interval kinds need From ≥ 0 and To > From, LinkSlow needs
// Factor ≥ 2, link kinds need two distinct endpoints, every node ID must
// lie in [0, math.MaxInt32) (the lookup arrays index by it, and their
// counting pass keeps fault indices as int32), MoveDrop needs Seq ≥ 0.
func FromFaults(fs ...Fault) (*Plan, error) {
	return fromOwned(slices.Clone(fs))
}

// maxNode bounds the node IDs a plan accepts.
const maxNode = math.MaxInt32

// fromOwned is FromFaults on a fault list the plan may keep as its own.
func fromOwned(fs []Fault) (*Plan, error) {
	p := &Plan{faults: fs}
	var links, crashes int
	for i, f := range fs {
		switch f.Kind {
		case LinkSlow, LinkDown, NodeCrash:
			if f.From < 0 || f.To <= f.From {
				return nil, fmt.Errorf("faults: fault %d (%s) has empty interval [%d,%d)", i, f.Kind, f.From, f.To)
			}
			if f.Kind == LinkSlow && f.Factor < 2 {
				return nil, fmt.Errorf("faults: fault %d (link-slow) has factor %d < 2", i, f.Factor)
			}
			if f.Kind == NodeCrash {
				if f.Node < 0 || f.Node >= maxNode {
					return nil, fmt.Errorf("faults: fault %d (node-crash) has node %d outside [0,%d)", i, f.Node, maxNode)
				}
				p.nodes = max(p.nodes, int(f.Node)+1)
				crashes++
				continue
			}
			if f.U == f.V {
				return nil, fmt.Errorf("faults: fault %d (%s) is a self-loop at node %d", i, f.Kind, f.U)
			}
			if f.U < 0 || f.V < 0 || f.U >= maxNode || f.V >= maxNode {
				return nil, fmt.Errorf("faults: fault %d (%s) has endpoint in {%d,%d} outside [0,%d)", i, f.Kind, f.U, f.V, maxNode)
			}
			p.nodes = max(p.nodes, int(f.U)+1, int(f.V)+1)
			links++
		case MoveDrop:
			if f.Seq < 0 {
				return nil, fmt.Errorf("faults: fault %d (move-drop) has negative seq %d", i, f.Seq)
			}
			if p.drops == nil {
				p.drops = map[dropKey]struct{}{}
			}
			p.drops[dropKey{f.Object, f.Seq}] = struct{}{}
		default:
			return nil, fmt.Errorf("faults: fault %d has unknown kind %d", i, int(f.Kind))
		}
	}
	if links+crashes > 0 {
		p.index(links, crashes)
	}
	return p, nil
}

// MustFromFaults is FromFaults for tests and examples that treat a bad
// script as a programming error.
func MustFromFaults(fs ...Fault) *Plan {
	p, err := FromFaults(fs...)
	if err != nil {
		panic(err)
	}
	return p
}

// index builds the lookup arrays and the boundaries from the validated
// fault list, which holds links link faults and crashes crash faults. The
// boundaries are every link fault's start and finite end and every merged
// crash span's, sorted and deduplicated.
func (p *Plan) index(links, crashes int) {
	fs, n := p.faults, p.nodes
	bounds := make([]int64, 0, 2*(links+crashes))
	add := func(s span) {
		bounds = append(bounds, s.from)
		if s.to != Forever {
			bounds = append(bounds, s.to)
		}
	}

	// Crashes: bucket by node, then sort and merge each node's spans in
	// place, sliding them left over the merged-away ones.
	if crashes > 0 {
		off, order := bucketFaults(fs, n, func(f *Fault) int {
			if f.Kind == NodeCrash {
				return int(f.Node)
			}
			return -1
		})
		spans := make([]span, len(order))
		for i, k := range order {
			spans[i] = span{fs[k].From, fs[k].To}
		}
		w, lo := 0, 0
		for v := 0; v < n; v++ {
			hi := off[v+1]
			for _, s := range mergeSpans(spans[lo:hi]) {
				spans[w] = s
				w++
				add(s)
			}
			off[v+1] = w
			lo = hi
		}
		p.crashOff, p.crashes = off, spans[:w]
	}

	// Links: bucket the link faults by their smaller endpoint, sort each
	// bucket by (larger endpoint, start), and sweep every link's spans
	// into its factor timeline.
	nlinks := 0
	if links > 0 {
		far := func(k int32) graph.NodeID { return max(fs[k].U, fs[k].V) }
		off, order := bucketFaults(fs, n, func(f *Fault) int {
			if f.Kind == LinkSlow || f.Kind == LinkDown {
				return int(min(f.U, f.V))
			}
			return -1
		})
		for u := 0; u < n; u++ {
			bucket := order[off[u]:off[u+1]]
			slices.SortFunc(bucket, func(a, b int32) int {
				if c := cmp.Compare(far(a), far(b)); c != 0 {
					return c
				}
				return cmp.Compare(fs[a].From, fs[b].From)
			})
			for i := range bucket {
				if i == 0 || far(bucket[i]) != far(bucket[i-1]) {
					nlinks++
				}
			}
		}
		p.linkOff = make([]int, n+1)
		p.linkNbr = make([]graph.NodeID, 0, nlinks)
		p.stepOff = make([]int, 1, nlinks+1)
		p.timeline = make([]linkStep, 0, 2*links)
		var seg, active []linkSpan
		for u := 0; u < n; u++ {
			bucket := order[off[u]:off[u+1]]
			for len(bucket) > 0 {
				v := far(bucket[0])
				seg = seg[:0]
				for ; len(bucket) > 0 && far(bucket[0]) == v; bucket = bucket[1:] {
					f := &fs[bucket[0]]
					s := linkSpan{span{f.From, f.To}, f.Factor}
					if f.Kind == LinkDown {
						s.factor = 0
					}
					seg = append(seg, s)
					add(s.span)
				}
				p.linkNbr = append(p.linkNbr, v)
				p.timeline, active = appendTimeline(p.timeline, seg, active)
				p.stepOff = append(p.stepOff, len(p.timeline))
			}
			p.linkOff[u+1] = len(p.linkNbr)
		}
	}

	slices.Sort(bounds)
	p.boundaries = slices.Compact(bounds)
	p.buildFilter(nlinks, links+crashes)
}

// bucketFaults counting-sorts the indices of the faults that key maps to
// a bucket in [0, n) (key < 0 skips a fault): bucket k's indices, in list
// order, are order[off[k]:off[k+1]].
func bucketFaults(fs []Fault, n int, key func(*Fault) int) (off []int, order []int32) {
	off = make([]int, n+1)
	for i := range fs {
		if k := key(&fs[i]); k >= 0 {
			off[k+1]++
		}
	}
	for k := 1; k <= n; k++ {
		off[k] += off[k-1]
	}
	order = make([]int32, off[n])
	for i := range fs {
		if k := key(&fs[i]); k >= 0 {
			order[off[k]] = int32(i)
			off[k]++
		}
	}
	copy(off[1:], off[:n]) // off[k] advanced to bucket k's end
	off[0] = 0
	return off, order
}

// appendTimeline appends the factor timeline of one link's spans (sorted
// by start) to tl: one entry at every start or finite end where the
// link's factor changes, holding the factor from that step on. The
// factor at a step is the mulFactor product over the spans covering it,
// or 0 when one of them is down. Spans with To == Forever cover steps up
// to Forever − 1, so a timeline that ends off 1 closes with a 1 at
// Forever. active is scratch, returned for reuse.
func appendTimeline(tl []linkStep, spans, active []linkSpan) ([]linkStep, []linkSpan) {
	active = active[:0]
	cur := int64(1)
	for next := 0; ; {
		t := Forever
		if next < len(spans) {
			t = spans[next].from
		}
		for _, s := range active {
			t = min(t, s.to)
		}
		if t == Forever {
			if cur != 1 {
				tl = append(tl, linkStep{Forever, 1})
			}
			return tl, active
		}
		live := active[:0]
		for _, s := range active {
			if s.to > t {
				live = append(live, s)
			}
		}
		active = live
		for ; next < len(spans) && spans[next].from == t; next++ {
			active = append(active, spans[next])
		}
		f := int64(1)
		for _, s := range active {
			if s.factor == 0 {
				f = 0
				break
			}
			f = mulFactor(f, s.factor)
		}
		if f != cur {
			tl = append(tl, linkStep{t, f})
			cur = f
		}
	}
}

// buildFilter sizes and fills the health filter. Its bucket width is the
// smallest power of two for which the rows hold at most one word per
// interval fault (faults of them) plus filterSlack, or a single row when
// even one row exceeds that.
func (p *Plan) buildFilter(nlinks, faults int) {
	last := p.boundaries[len(p.boundaries)-1]
	p.rowWords = (p.nodes + nlinks + 63) / 64
	maxRows := int64((faults + filterSlack) / p.rowWords)
	for p.shift < 63 && last>>p.shift > 0 && last>>p.shift >= maxRows {
		p.shift++
	}
	p.lastRow = last >> p.shift
	p.health = make([]uint64, int(p.lastRow+1)*p.rowWords)
	for v := 0; v+1 < len(p.crashOff); v++ {
		for _, s := range p.crashes[p.crashOff[v]:p.crashOff[v+1]] {
			p.mark(v, s)
		}
	}
	for i := range p.linkNbr {
		steps := p.timeline[p.stepOff[i]:p.stepOff[i+1]]
		for k, st := range steps {
			if st.factor == 1 {
				continue
			}
			s := span{st.at, Forever}
			if k+1 < len(steps) {
				s.to = steps[k+1].at
			}
			p.mark(p.nodes+i, s)
		}
	}
}

// mark sets site's filter bit in every row that span s touches.
func (p *Plan) mark(site int, s span) {
	last := p.lastRow
	if s.to != Forever {
		last = min(last, (s.to-1)>>p.shift)
	}
	for r := s.from >> p.shift; r <= last; r++ {
		p.health[int(r)*p.rowWords+site>>6] |= 1 << (uint(site) & 63)
	}
}

// flagged reports site's filter bit at step; false means the site is
// healthy at step.
func (p *Plan) flagged(site int, step int64) bool {
	r := int64(0)
	if step > 0 {
		r = min(step>>p.shift, p.lastRow)
	}
	return p.health[int(r)*p.rowWords+site>>6]&(1<<(uint(site)&63)) != 0
}

// mergeSpans merges overlapping or touching intervals.
func mergeSpans(spans []span) []span {
	if len(spans) <= 1 {
		return spans
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.from, b.from) })
	out := spans[:1]
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if s.from <= last.to {
			if s.to > last.to {
				last.to = s.to
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// Faults returns the plan's scripted faults (read-only).
func (p *Plan) Faults() []Fault { return p.faults }

// Empty reports whether the plan can never fire (a nil plan never does);
// an empty plan leaves a sim.Run replay fault-free.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.faults) == 0 && p.dropRate == 0)
}

// Count is the number of scripted faults (rate-based move drops are
// uncounted: they surface as retries in the report).
func (p *Plan) Count() int {
	if p == nil {
		return 0
	}
	return len(p.faults)
}

// Boundaries returns the sorted ascending steps at which interval fault
// state may change (fault starts and finite ends). The state is piecewise
// constant: between two consecutive boundaries every LinkFactor and
// NodeDownUntil answer stays fixed. The simulator relies on this to make
// a partitioned move wait for the next boundary (the first step at which
// connectivity can return) and to size its step limit.
func (p *Plan) Boundaries() []int64 {
	if p == nil {
		return nil
	}
	return p.boundaries
}

// LinkFactor returns the delay multiplier of link {u, v} at step: 1
// healthy, 0 down, > 1 slowed. Overlapping faults multiply, saturating at
// MaxLinkFactor; a down fault dominates. The lookup is the link's CSR
// slot, its filter bit, then a binary search of its timeline for the last
// entry at or before step.
func (p *Plan) LinkFactor(u, v graph.NodeID, step int64) int64 {
	if p == nil || len(p.linkNbr) == 0 {
		return 1
	}
	if u > v {
		u, v = v, u
	}
	if u < 0 || int(v) >= p.nodes {
		return 1
	}
	i, hi := p.linkOff[u], p.linkOff[u+1]
	for i < hi && p.linkNbr[i] < v {
		i++
	}
	if i == hi || p.linkNbr[i] != v || !p.flagged(p.nodes+i, step) {
		return 1
	}
	lo, hi := p.stepOff[i], p.stepOff[i+1]
	for lo < hi { // first entry after step
		m := int(uint(lo+hi) >> 1)
		if p.timeline[m].at <= step {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == p.stepOff[i] {
		return 1
	}
	return p.timeline[lo-1].factor
}

// NodeDownUntil reports whether node v is crashed at step and, if so, the
// step at which it restarts (Forever = never). The lookup is the node's
// filter bit, then a binary search of its merged crash spans for the first
// one ending after step. Merged spans neither overlap nor touch, so that
// span's end is the true restart step.
func (p *Plan) NodeDownUntil(v graph.NodeID, step int64) (int64, bool) {
	if p == nil || len(p.crashes) == 0 || v < 0 || int(v) >= p.nodes || !p.flagged(int(v), step) {
		return 0, false
	}
	spans := p.crashes[p.crashOff[v]:p.crashOff[v+1]]
	lo, hi := 0, len(spans)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if spans[m].to <= step {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(spans) && spans[lo].from <= step {
		return spans[lo].to, true
	}
	return 0, false
}

// DropMove reports whether the seq-th dispatch attempt of object o,
// departing at step, is lost in transit. Scripted drops fire on their
// exact (object, seq) pair; the probabilistic rate hashes (seed, object,
// seq) so the decision is reproducible and independent of when the
// dispatch happens.
func (p *Plan) DropMove(o tm.ObjectID, seq int, step int64) bool {
	if p == nil {
		return false
	}
	if len(p.drops) > 0 {
		if _, hit := p.drops[dropKey{o, seq}]; hit {
			return true
		}
	}
	if p.dropRate <= 0 {
		return false
	}
	return hashUnit(p.dropSeed, int64(o), int64(seq)) < p.dropRate
}

// String summarizes the plan.
func (p *Plan) String() string {
	if p.Empty() {
		return "faults.Plan(empty)"
	}
	var slow, down, crash, drop int
	for _, f := range p.faults {
		switch f.Kind {
		case LinkSlow:
			slow++
		case LinkDown:
			down++
		case NodeCrash:
			crash++
		case MoveDrop:
			drop++
		}
	}
	return fmt.Sprintf("faults.Plan(%d slow, %d down, %d crash, %d drop, rate=%.3g)",
		slow, down, crash, drop, p.dropRate)
}

// hashUnit maps (seed, a, b) to a uniform value in [0, 1) through an
// xrand key (the trailing empty label closes the path with a separator).
// Purely arithmetic, so the probabilistic drop path allocates nothing and
// never consults a shared RNG.
func hashUnit(seed, a, b int64) float64 {
	h := uint64(xrand.NewKey(seed).Word(a).Word(b).Label(""))
	// Use the top 53 bits for a full-precision float in [0, 1).
	return float64(h>>11) / float64(1<<53)
}
