// Package cliutil holds the flag-to-constructor tables shared by the CLI
// binaries: every subcommand that lets the user name a topology or a
// workload (dtmsched's main, trace, and serve paths, and the experiment
// sweeps behind dtmbench) resolves the name through this package, so a new
// topology — like the fog–cloud tree with its list-valued shape flags —
// lands in one table instead of one per flag set.
package cliutil

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"dtmsched/internal/faults"
	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
)

// TopoFlags carries the topology-shape flags of a CLI flag set. Register
// installs them; Build resolves the parsed values into a topology.
type TopoFlags struct {
	Name   string
	N      int    // clique/line node count
	Side   int    // grid/torus side length
	Dim    int    // hypercube/butterfly dimension
	Alpha  int    // cluster/star: clusters/rays
	Beta   int    // cluster/star: nodes per cluster/ray
	Gamma  int64  // cluster bridge edge weight
	Fanout string // fogcloud per-tier fan-out, comma-separated ("4,8")
	LinkW  string // fogcloud per-tier uplink weights, comma-separated ("8,1")
}

// TopoNames documents the -topo values Build accepts.
const TopoNames = "clique|line|grid|torus|hypercube|butterfly|cluster|star|fogcloud"

// RegisterTopoFlags installs the topology flags on fs, seeded with def's
// values as the defaults, and returns the struct the parsed values land in.
func RegisterTopoFlags(fs *flag.FlagSet, def TopoFlags) *TopoFlags {
	tf := &def
	fs.StringVar(&tf.Name, "topo", def.Name, "topology: "+TopoNames)
	fs.IntVar(&tf.N, "n", def.N, "nodes (clique/line)")
	fs.IntVar(&tf.Side, "side", def.Side, "grid/torus side length")
	fs.IntVar(&tf.Dim, "dim", def.Dim, "hypercube/butterfly dimension")
	fs.IntVar(&tf.Alpha, "alpha", def.Alpha, "cluster/star: number of clusters/rays")
	fs.IntVar(&tf.Beta, "beta", def.Beta, "cluster/star: nodes per cluster/ray")
	fs.Int64Var(&tf.Gamma, "gamma", def.Gamma, "cluster: bridge edge weight")
	fs.StringVar(&tf.Fanout, "fanout", def.Fanout, "fogcloud: per-tier fan-out, comma-separated (e.g. 4,8)")
	fs.StringVar(&tf.LinkW, "linkw", def.LinkW, "fogcloud: per-tier uplink weights, comma-separated (e.g. 8,1)")
	return tf
}

// Build resolves the parsed topology flags.
func (tf *TopoFlags) Build() (topology.Topology, error) {
	switch tf.Name {
	case "clique":
		return topology.NewClique(tf.N), nil
	case "line":
		return topology.NewLine(tf.N), nil
	case "grid":
		return topology.NewSquareGrid(tf.Side), nil
	case "torus":
		return topology.NewTorus(tf.Side, tf.Side), nil
	case "hypercube":
		return topology.NewHypercube(tf.Dim), nil
	case "butterfly":
		return topology.NewButterfly(tf.Dim), nil
	case "cluster":
		return topology.NewCluster(tf.Alpha, tf.Beta, tf.Gamma), nil
	case "star":
		return topology.NewStar(tf.Alpha, tf.Beta), nil
	case "fogcloud":
		fanout, weights, err := ParseFogCloudShape(tf.Fanout, tf.LinkW)
		if err != nil {
			return nil, err
		}
		return topology.NewFogCloud(fanout, weights), nil
	default:
		return nil, fmt.Errorf("unknown topology %q (want %s)", tf.Name, TopoNames)
	}
}

// ParseFogCloudShape parses the fogcloud list flags. An empty weight list
// defaults to the halving ladder 2^(L-1)…1 — cloud links slowest, edge
// links unit — matching the heterogeneity the fog model assumes.
func ParseFogCloudShape(fanout, linkw string) ([]int, []int64, error) {
	fo, err := ParseInts(fanout)
	if err != nil || len(fo) == 0 {
		return nil, nil, fmt.Errorf("fogcloud -fanout %q: want a comma-separated list of positive tier fan-outs (e.g. 4,8)", fanout)
	}
	for _, f := range fo {
		if f < 1 {
			return nil, nil, fmt.Errorf("fogcloud -fanout %q: fan-out %d < 1", fanout, f)
		}
	}
	var wt []int64
	if strings.TrimSpace(linkw) == "" {
		wt = make([]int64, len(fo))
		for i := range wt {
			wt[i] = int64(1) << (len(fo) - 1 - i)
		}
	} else {
		wt, err = ParseInt64s(linkw)
		if err != nil {
			return nil, nil, fmt.Errorf("fogcloud -linkw %q: want a comma-separated list of positive link weights (e.g. 8,1)", linkw)
		}
	}
	if len(wt) != len(fo) {
		return nil, nil, fmt.Errorf("fogcloud shape: %d fan-out levels but %d link weights", len(fo), len(wt))
	}
	for _, w := range wt {
		if w < 1 {
			return nil, nil, fmt.Errorf("fogcloud -linkw %q: weight %d < 1", linkw, w)
		}
	}
	return fo, wt, nil
}

// ParseInts parses a comma-separated integer list; empty input is an empty
// list, not an error.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in list %q", tok, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseInt64s parses a comma-separated int64 list.
func ParseInt64s(s string) ([]int64, error) {
	xs, err := ParseInts(s)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(xs))
	for i, v := range xs {
		out[i] = int64(v)
	}
	return out, nil
}

// WorkloadFlags carries the workload flags of a CLI flag set.
type WorkloadFlags struct {
	Name     string
	W        int     // shared objects
	K        int     // objects per transaction
	Locality float64 // localized workload's in-group probability
}

// WorkloadNames documents the -workload values Build accepts.
const WorkloadNames = "uniform|zipf|hotspot|single|localized"

// RegisterWorkloadFlags installs the workload flags on fs with def's
// values as the defaults.
func RegisterWorkloadFlags(fs *flag.FlagSet, def WorkloadFlags) *WorkloadFlags {
	wf := &def
	fs.StringVar(&wf.Name, "workload", def.Name, "workload: "+WorkloadNames)
	fs.IntVar(&wf.W, "w", def.W, "number of shared objects")
	fs.IntVar(&wf.K, "k", def.K, "objects per transaction")
	fs.Float64Var(&wf.Locality, "locality", def.Locality, "localized workload: probability a draw stays in the node's own subtree group")
	return wf
}

// Build resolves the parsed workload flags. The localized workload shards
// the object space by fog subtree, so it needs the fog–cloud topology the
// instance will be generated on; every other workload ignores topo.
func (wf *WorkloadFlags) Build(topo topology.Topology) (tm.Workload, error) {
	switch wf.Name {
	case "uniform":
		return tm.UniformK(wf.W, wf.K), nil
	case "zipf":
		return tm.ZipfK(wf.W, wf.K), nil
	case "hotspot":
		return tm.HotspotK(wf.W, wf.K), nil
	case "single":
		return tm.SingleObject(), nil
	case "localized":
		fc, ok := topo.(*topology.FogCloud)
		if !ok {
			return tm.Workload{}, fmt.Errorf("workload localized needs -topo fogcloud (object groups follow fog subtrees)")
		}
		groups := fc.TierSize(1)
		if wf.W%groups != 0 {
			return tm.Workload{}, fmt.Errorf("workload localized: -w %d not divisible by the %d fog subtrees", wf.W, groups)
		}
		if wf.K > wf.W/groups {
			return tm.Workload{}, fmt.Errorf("workload localized: -k %d exceeds the per-subtree pool %d", wf.K, wf.W/groups)
		}
		if wf.Locality < 0 || wf.Locality > 1 {
			return tm.Workload{}, fmt.Errorf("workload localized: -locality %g outside [0,1]", wf.Locality)
		}
		return tm.LocalizedK(wf.W, wf.K, groups, wf.Locality, FogSubtree(fc)), nil
	default:
		return tm.Workload{}, fmt.Errorf("unknown workload %q (want %s)", wf.Name, WorkloadNames)
	}
}

// FaultSpec is the parsed -faults flag: the chaos rate fanned over the
// fault classes, plus an optional plan seed decoupled from the workload
// seed so chaos can be re-rolled without changing the transaction stream.
type FaultSpec struct {
	Rate float64
	Seed int64 // 0 = reuse the run's root seed
}

// ParseFaultSpec parses "RATE" or "RATE,SEED" (e.g. "0.1" or "0.1,99").
// The empty string means chaos off and parses to the zero spec.
func ParseFaultSpec(s string) (FaultSpec, error) {
	var spec FaultSpec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) > 2 {
		return spec, fmt.Errorf("-faults %q: want RATE or RATE,SEED", s)
	}
	rate, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err == nil {
		err = faults.CheckRate("rate", rate)
	}
	if err != nil {
		return spec, fmt.Errorf("-faults %q: rate must be a number in [0,1]: %w", s, err)
	}
	spec.Rate = rate
	if len(parts) == 2 {
		seed, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return spec, fmt.Errorf("-faults %q: bad seed %q", s, parts[1])
		}
		spec.Seed = seed
	}
	return spec, nil
}

// FogSubtree returns the group-assignment function the localized workload
// and the partitioned fixtures share: a node's tier-1 subtree index, or -1
// for the cloud root (which then draws uniformly).
func FogSubtree(fc *topology.FogCloud) func(node graph.NodeID) int {
	return func(node graph.NodeID) int {
		if fc.TierOf(node) < 1 {
			return -1
		}
		return int(fc.Ancestor(node, 1)) - int(fc.TierStart(1))
	}
}
