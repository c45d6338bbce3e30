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
// faults, never on query order. Injectors compose, so tests can overlay a
// scripted fault sequence on a rate-generated background plan.
package faults

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

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

// Injector is the fault state a faulty simulation consults. Implementations
// must be deterministic (answers depend only on the arguments) and safe for
// concurrent readers, because engine jobs may share one injector.
//
// The step arguments let custom injectors vary state over time, but the
// contract is piecewise-constant state: between two consecutive Boundaries
// entries every answer must stay fixed. The simulator relies on this to
// make a partitioned move wait for the next boundary (the first step at
// which connectivity can return) and to size its step limit.
type Injector interface {
	// Empty reports whether the injector can never fire; an empty
	// injector leaves a sim.Run replay fault-free.
	Empty() bool
	// Count is the number of scripted faults (rate-based move drops are
	// uncounted: they surface as retries in the report).
	Count() int
	// Boundaries returns the sorted ascending steps at which interval
	// fault state may change (fault starts and finite ends).
	Boundaries() []int64
	// LinkFactor returns the delay multiplier of link {u, v} at step:
	// 1 healthy, 0 down, > 1 slowed. Overlapping faults multiply,
	// saturating at MaxLinkFactor; a down fault dominates.
	LinkFactor(u, v graph.NodeID, step int64) int64
	// NodeDownUntil reports whether node v is crashed at step and, if so,
	// the step at which it restarts (Forever = never).
	NodeDownUntil(v graph.NodeID, step int64) (restart int64, down bool)
	// DropMove reports whether the seq-th dispatch attempt of object o,
	// departing at step, is lost in transit.
	DropMove(o tm.ObjectID, seq int, step int64) bool
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

// Plan is the standard Injector: a fixed fault list with precomputed
// lookups, plus an optional probabilistic per-dispatch drop rate resolved
// by seeded hashing (deterministic and independent of query order). Build
// one from explicit faults with FromFaults or from rates with New.
type Plan struct {
	faults     []Fault
	boundaries []int64
	links      map[linkKey][]linkSpan
	crashes    map[graph.NodeID][]span
	drops      map[dropKey]struct{}
	dropRate   float64
	dropSeed   int64
}

// FromFaults builds a plan from an explicit fault script. Faults are
// validated: interval kinds need From ≥ 0 and To > From, LinkSlow needs
// Factor ≥ 2, MoveDrop needs Seq ≥ 0.
func FromFaults(fs ...Fault) (*Plan, error) {
	return fromOwned(slices.Clone(fs))
}

// fromOwned is FromFaults on a fault list the plan may keep as its own.
func fromOwned(fs []Fault) (*Plan, error) {
	p := &Plan{
		faults:  fs,
		links:   map[linkKey][]linkSpan{},
		crashes: map[graph.NodeID][]span{},
		drops:   map[dropKey]struct{}{},
	}
	for i, f := range fs {
		switch f.Kind {
		case LinkSlow, LinkDown, NodeCrash:
			if f.From < 0 || f.To <= f.From {
				return nil, fmt.Errorf("faults: fault %d (%s) has empty interval [%d,%d)", i, f.Kind, f.From, f.To)
			}
			if f.Kind == LinkSlow && f.Factor < 2 {
				return nil, fmt.Errorf("faults: fault %d (link-slow) has factor %d < 2", i, f.Factor)
			}
			if f.Kind != NodeCrash && f.U == f.V {
				return nil, fmt.Errorf("faults: fault %d (%s) is a self-loop at node %d", i, f.Kind, f.U)
			}
		case MoveDrop:
			if f.Seq < 0 {
				return nil, fmt.Errorf("faults: fault %d (move-drop) has negative seq %d", i, f.Seq)
			}
		default:
			return nil, fmt.Errorf("faults: fault %d has unknown kind %d", i, int(f.Kind))
		}
		p.add(f)
	}
	p.finish()
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

// add indexes one validated fault.
func (p *Plan) add(f Fault) {
	switch f.Kind {
	case LinkSlow:
		k := mkLinkKey(f.U, f.V)
		p.links[k] = append(p.links[k], linkSpan{span{f.From, f.To}, f.Factor})
	case LinkDown:
		k := mkLinkKey(f.U, f.V)
		p.links[k] = append(p.links[k], linkSpan{span{f.From, f.To}, 0})
	case NodeCrash:
		p.crashes[f.Node] = append(p.crashes[f.Node], span{f.From, f.To})
	case MoveDrop:
		p.drops[dropKey{f.Object, f.Seq}] = struct{}{}
	}
}

// finish sorts the lookup structures and collects the epoch boundaries.
// Link spans sort by start alone: LinkFactor's answer does not depend on
// the order of spans that share one (mulFactor saturates the same in any
// order, and a down span dominates).
func (p *Plan) finish() {
	bounds := make([]int64, 0, 2*len(p.faults)) // ≤ 2 per interval fault
	add := func(s span) {
		bounds = append(bounds, s.from)
		if s.to != Forever {
			bounds = append(bounds, s.to)
		}
	}
	for _, spans := range p.links {
		slices.SortFunc(spans, func(a, b linkSpan) int { return cmp.Compare(a.from, b.from) })
		for _, s := range spans {
			add(s.span)
		}
	}
	for v, spans := range p.crashes {
		spans = mergeSpans(spans)
		p.crashes[v] = spans
		for _, s := range spans {
			add(s)
		}
	}
	slices.Sort(bounds)
	p.boundaries = slices.Compact(bounds)
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

// DropRate returns the probabilistic per-dispatch drop rate (0 = none).
func (p *Plan) DropRate() float64 { return p.dropRate }

// Empty implements Injector.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.faults) == 0 && p.dropRate == 0)
}

// Count implements Injector.
func (p *Plan) Count() int {
	if p == nil {
		return 0
	}
	return len(p.faults)
}

// Boundaries implements Injector.
func (p *Plan) Boundaries() []int64 {
	if p == nil {
		return nil
	}
	return p.boundaries
}

// LinkFactor implements Injector.
func (p *Plan) LinkFactor(u, v graph.NodeID, step int64) int64 {
	if p == nil || len(p.links) == 0 {
		return 1
	}
	factor := int64(1)
	// Spans are sorted by start (finish), so none past the first one
	// starting after step can cover it.
	for _, s := range p.links[mkLinkKey(u, v)] {
		if s.from > step {
			break
		}
		if step >= s.to {
			continue
		}
		if s.factor == 0 {
			return 0
		}
		factor = mulFactor(factor, s.factor)
	}
	return factor
}

// NodeDownUntil implements Injector. Crash spans are merged at build time,
// so the first covering span's end is the true restart step.
func (p *Plan) NodeDownUntil(v graph.NodeID, step int64) (int64, bool) {
	if p == nil || len(p.crashes) == 0 {
		return 0, false
	}
	for _, s := range p.crashes[v] {
		if step >= s.from && step < s.to {
			return s.to, true
		}
		if s.from > step {
			break
		}
	}
	return 0, false
}

// DropMove implements Injector: scripted drops fire on their exact (object,
// seq) pair; the probabilistic rate hashes (seed, object, seq) so the
// decision is reproducible and independent of when the dispatch happens.
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

// compose overlays several injectors.
type compose struct {
	injs       []Injector
	boundaries []int64
}

// Compose overlays injectors: link factors multiply (down dominates), node
// crashes and move drops union, boundaries merge. Nil and empty injectors
// are skipped; composing zero live injectors yields an empty plan, and a
// single live injector is returned as-is.
func Compose(injs ...Injector) Injector {
	live := make([]Injector, 0, len(injs))
	for _, in := range injs {
		if in != nil && !in.Empty() {
			live = append(live, in)
		}
	}
	switch len(live) {
	case 0:
		return (*Plan)(nil)
	case 1:
		return live[0]
	}
	set := map[int64]struct{}{}
	for _, in := range live {
		for _, b := range in.Boundaries() {
			set[b] = struct{}{}
		}
	}
	bounds := make([]int64, 0, len(set))
	for b := range set {
		bounds = append(bounds, b)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	return &compose{injs: live, boundaries: bounds}
}

// Empty implements Injector.
func (c *compose) Empty() bool { return false }

// Count implements Injector.
func (c *compose) Count() int {
	total := 0
	for _, in := range c.injs {
		total += in.Count()
	}
	return total
}

// Boundaries implements Injector.
func (c *compose) Boundaries() []int64 { return c.boundaries }

// LinkFactor implements Injector.
func (c *compose) LinkFactor(u, v graph.NodeID, step int64) int64 {
	factor := int64(1)
	for _, in := range c.injs {
		f := in.LinkFactor(u, v, step)
		if f == 0 {
			return 0
		}
		factor = mulFactor(factor, f)
	}
	return factor
}

// NodeDownUntil implements Injector: the latest restart among injectors
// reporting the node down. The simulator re-queries after advancing, so
// staggered overlapping crashes resolve over successive calls.
func (c *compose) NodeDownUntil(v graph.NodeID, step int64) (int64, bool) {
	var restart int64
	down := false
	for _, in := range c.injs {
		if r, d := in.NodeDownUntil(v, step); d {
			down = true
			if r > restart {
				restart = r
			}
		}
	}
	return restart, down
}

// DropMove implements Injector.
func (c *compose) DropMove(o tm.ObjectID, seq int, step int64) bool {
	for _, in := range c.injs {
		if in.DropMove(o, seq, step) {
			return true
		}
	}
	return false
}
