// Package stream turns the batch reproduction into a long-running
// scheduling service, addressing the paper's Section 9 open question of
// continuous arrival: transactions are admitted from a seeded load
// generator into a bounded queue with explicit backpressure, cut into
// rolling scheduling windows (the window chaining of internal/windows
// generalized to an unbounded sequence), list-scheduled against the
// chained object-release state, and executed through the engine pipeline while the next window
// fills.
//
// All admission, cutting, and scheduling decisions happen on one
// logical-time serving loop that owns every piece of mutable state, so a
// run is bit-deterministic for a given seed and configuration regardless
// of how the concurrent executor interleaves: same seed ⇒ identical
// admission order, window cuts, and commit steps (Result.Digest pins
// this). Wall-clock concurrency only overlaps window *execution*
// (the simulator replay, measurement, retries) with the cutting of later
// windows.
package stream

import (
	"fmt"
	"math/rand"

	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
	"dtmsched/internal/xrand"
)

// Item is one streamed transaction: an admission sequence number, the
// issuing node, the object set, and the logical arrival step.
type Item struct {
	// Seq is the dense generation-order sequence number.
	Seq int
	// Node is the node the transaction executes on.
	Node graph.NodeID
	// Objects are the distinct objects the transaction needs.
	Objects []tm.ObjectID
	// Arrive is the logical step the transaction becomes known, ≥ 0 and
	// non-decreasing in Seq.
	Arrive int64
}

// Source produces the transaction stream in arrival order. Sources are
// pulled only from the serving loop, so they need not be goroutine-safe.
type Source interface {
	// Next returns the next transaction, or ok = false once the stream
	// is exhausted.
	Next() (it Item, ok bool)
}

// Generator is the seeded load generator: nodes drawn uniformly from the
// graph, object sets from the workload's Pick, and inter-arrival gaps
// geometric with mean exactly 1/min(rate, 1) steps (xrand.GeometricGap),
// so the offered load matches the nominal injection rate.
type Generator struct {
	rng   *rand.Rand
	nodes []graph.NodeID
	w     tm.Workload
	rate  float64
	limit int

	seq  int
	next int64
}

// MakeGenerator builds a generator producing limit transactions at the
// given rate (transactions per step), rejecting a non-positive rate or
// limit, a nil rng or graph, or a workload without a Pick with a typed
// *ConfigError instead of failing deep inside Serve.
func MakeGenerator(rng *rand.Rand, g *graph.Graph, w tm.Workload, rate float64, limit int) (*Generator, error) {
	if rng == nil {
		return nil, &ConfigError{"Source", "nil rng"}
	}
	if g == nil || g.NumNodes() == 0 {
		return nil, &ConfigError{"Source", "nil or empty graph"}
	}
	if rate <= 0 {
		return nil, &ConfigError{"Source", fmt.Sprintf("non-positive injection rate %v", rate)}
	}
	if limit <= 0 {
		return nil, &ConfigError{"Source", fmt.Sprintf("non-positive stream limit %d", limit)}
	}
	if w.Pick == nil {
		return nil, &ConfigError{"Source", "workload has no Pick"}
	}
	return &Generator{rng: rng, nodes: g.Nodes(), w: w, rate: rate, limit: limit}, nil
}

// NewGenerator is MakeGenerator for callers that treat a bad workload as
// a programming error: it panics where MakeGenerator reports.
func NewGenerator(rng *rand.Rand, g *graph.Graph, w tm.Workload, rate float64, limit int) *Generator {
	gen, err := MakeGenerator(rng, g, w, rate, limit)
	if err != nil {
		panic(err.Error())
	}
	return gen
}

// Next implements Source. The first transaction arrives at step 0.
func (g *Generator) Next() (Item, bool) {
	if g.seq >= g.limit {
		return Item{}, false
	}
	node := g.nodes[g.rng.Intn(len(g.nodes))]
	it := Item{
		Seq:     g.seq,
		Node:    node,
		Objects: g.w.Pick(g.rng, node),
		Arrive:  g.next,
	}
	g.seq++
	g.next += xrand.GeometricGap(g.rng, g.rate)
	return it, true
}

// Policy selects what happens when an arrival finds the admission queue
// full.
type Policy int

const (
	// Block stops pulling from the source until a window cut frees queue
	// space: no transaction is lost, arrival latency absorbs the
	// overload (surfaced as the blocked counter).
	Block Policy = iota
	// Reject drops the overflowing arrival (surfaced as the rejected
	// counter) and keeps consuming the stream.
	Reject
)

// String names the policy for flags and reports.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy resolves a policy name ("block" or "reject").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "reject":
		return Reject, nil
	default:
		return 0, fmt.Errorf("stream: unknown backpressure policy %q (want block or reject)", s)
	}
}
