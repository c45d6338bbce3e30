// Package experiments regenerates every result of the paper as a table or
// figure: one experiment per theorem (E1–E7), the Section 8 lower-bound
// constructions (E8–E9), and a baseline/ablation comparison (E10). Each
// experiment sweeps the parameters its theorem quantifies over, measures
// makespans against certified instance lower bounds, and checks the
// proven *shape* (who wins, bounded ratios, growth rates) rather than
// absolute numbers.
//
// The package is consumed by cmd/dtmbench (human-readable report, the
// source of EXPERIMENTS.md) and by the repository-root benchmarks.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"dtmsched/internal/core"
	"dtmsched/internal/engine"
	"dtmsched/internal/faults"
	"dtmsched/internal/lower"
	"dtmsched/internal/obs"
	"dtmsched/internal/schedule"
	"dtmsched/internal/stats"
	"dtmsched/internal/tm"
	"dtmsched/internal/xrand"
)

// Config tunes experiment execution.
type Config struct {
	// Seed roots all randomness; fixed default for reproducibility.
	Seed int64
	// Trials is the number of random instances per parameter cell.
	Trials int
	// Quick shrinks sweeps for fast CI/bench runs.
	Quick bool
	// Workers bounds the engine worker pool that trial cells fan out
	// over (0 = GOMAXPROCS, 1 = sequential). Results are identical for
	// every worker count.
	Workers int
	// Ctx cancels long sweeps mid-flight; nil means Background.
	Ctx context.Context
	// Collector, when set, receives stage timings, counters, and
	// (depending on its configuration) run traces from every engine job
	// the experiments execute. Nil costs nothing.
	Collector *obs.Collector
	// FaultRates overrides E20's fault-rate ladder (dtmbench -faults).
	// Empty keeps the experiment's default ladder; a 0 entry is the
	// fault-free baseline column.
	FaultRates []float64
	// LowerOracle, when set, caches certified bounds per instance across
	// everything this config runs — engine sweeps and the experiments'
	// direct bound queries alike. Nil scopes a fresh oracle to each
	// engine batch instead (direct queries then compute uncached).
	LowerOracle *lower.Oracle
	// HierWorkers bounds the hierarchical scheduler's shard worker pool
	// in E22 (0 = GOMAXPROCS, 1 = serial). Purely a performance knob:
	// hierarchical schedules are byte-identical at every worker count.
	HierWorkers int
}

// bound returns the certified lower bound for in, through the shared
// oracle when one is configured, else a direct value-path computation
// (the experiments' own queries only read the scalar fields).
func (c Config) bound(in *tm.Instance) lower.Bound {
	if c.LowerOracle != nil {
		b, _ := c.LowerOracle.Get(in)
		return *b
	}
	return lower.Value(in)
}

// prepare installs the precomputed all-pairs distance matrix on a
// freshly built instance when its graph is small enough to pay for it
// (tm.Instance.PrecomputeDistAuto); makespans, bounds, and ratios are
// identical either way. It runs single-threaded SSSP: callers are
// already fanned out across the engine worker pool, so nesting
// parallelism would oversubscribe.
func (c Config) prepare(in *tm.Instance) *tm.Instance {
	in.PrecomputeDistAuto(1)
	return in
}

// wrapGen applies prepare to the instance a Gen closure produces.
func (c Config) wrapGen(gen func() (*tm.Instance, error)) func() (*tm.Instance, error) {
	return func() (*tm.Instance, error) {
		in, err := gen()
		if err != nil {
			return nil, err
		}
		return c.prepare(in), nil
	}
}

// context returns the sweep's cancellation context.
func (c Config) context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// DefaultConfig is the configuration used for EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{Seed: xrand.DefaultSeed, Trials: 3}
}

// Check is one named shape assertion derived from a theorem.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Result is an experiment's rendered output.
type Result struct {
	ID     string
	Title  string
	Ref    string // paper reference (theorem / section)
	Table  *stats.Table
	Checks []Check
	Notes  []string
}

// Failed returns the failing checks.
func (r *Result) Failed() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// Experiment is a registered experiment.
type Experiment struct {
	ID    string
	Title string
	Ref   string
	Run   func(cfg Config) (*Result, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment in ID order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// cell is one measured (instance, algorithm) data point.
type cell struct {
	Makespan int64
	Bound    lower.Bound
	CommCost int64
	Stats    map[string]int64
	// P50/P99 are per-transaction latency percentiles: the step at which
	// a transaction commits, counted from batch activation at step 0.
	P50, P99 int64
	// Fault is the recovery summary of a fault-injected run (E20); nil
	// for fault-free cells.
	Fault *faults.Report
}

// Ratio is makespan over the certified lower bound.
func (c cell) Ratio() float64 {
	if c.Bound.Value == 0 {
		return 0
	}
	return float64(c.Makespan) / float64(c.Bound.Value)
}

// cellFromReport converts an engine report into a measurement cell.
func cellFromReport(r *engine.Report) cell {
	c := cell{Makespan: r.Makespan, Bound: r.Bound, CommCost: r.CommCost, Stats: r.Stats, Fault: r.Fault}
	if r.Schedule != nil {
		q := obs.Quantiles(r.Schedule.Times, 0.50, 0.99)
		c.P50, c.P99 = q[0], q[1]
	}
	return c
}

// runCell schedules in with sched through the engine pipeline (full
// verification: algebraic + synchronous simulator) and measures it against
// the instance lower bound. Any infeasibility is a hard error: the
// experiments never report unverified schedules.
func runCell(cfg Config, in *tm.Instance, sched core.Scheduler) (cell, error) {
	rep, err := engine.Run(cfg.context(), engine.Job{Instance: cfg.prepare(in), Scheduler: sched, Collector: cfg.Collector, LowerOracle: cfg.LowerOracle})
	if err != nil {
		return cell{}, fmt.Errorf("%s: %w", sched.Name(), err)
	}
	return cellFromReport(rep), nil
}

// runSchedule is runCell for a precomputed schedule.
func runSchedule(cfg Config, in *tm.Instance, s *schedule.Schedule, name string) (cell, error) {
	rep, err := engine.Run(cfg.context(), engine.Job{Instance: cfg.prepare(in), Schedule: s, Algorithm: name, Collector: cfg.Collector, LowerOracle: cfg.LowerOracle})
	if err != nil {
		return cell{}, fmt.Errorf("%s: %w", name, err)
	}
	return cellFromReport(rep), nil
}

// sweep accumulates engine jobs across a parameter sweep, grouped into
// cells, and executes them all through one engine.RunBatch fan-out: trial
// cells of an experiment run concurrently (bounded by Config.Workers)
// while the grouped results keep their deterministic add order.
type sweep struct {
	cfg   Config
	jobs  []engine.Job
	sizes []int // jobs per closed cell, in endCell order
	open  int   // jobs added to the currently open cell
}

// newSweep starts an empty sweep under cfg.
func newSweep(cfg Config) *sweep { return &sweep{cfg: cfg} }

// add appends one scheduler job to the open cell. gen runs on a pool
// worker, so it must derive its randomness from labels, not shared state.
func (s *sweep) add(name string, gen func() (*tm.Instance, error), sched core.Scheduler) {
	s.jobs = append(s.jobs, engine.Job{Name: name, Gen: s.cfg.wrapGen(gen), Scheduler: sched})
	s.open++
}

// addInstance appends one scheduler job on a pre-built instance. Instances
// may be shared between jobs of a cell (e.g. several algorithms compared
// on the same input).
func (s *sweep) addInstance(name string, in *tm.Instance, sched core.Scheduler) {
	s.jobs = append(s.jobs, engine.Job{Name: name, Instance: s.cfg.prepare(in), Scheduler: sched})
	s.open++
}

// endCell closes the current cell.
func (s *sweep) endCell() {
	s.sizes = append(s.sizes, s.open)
	s.open = 0
}

// run executes every accumulated job and returns the cells grouped per
// endCell call, in order. The first failing job aborts the sweep.
func (s *sweep) run() ([][]cell, error) {
	if s.open > 0 {
		s.endCell()
	}
	results, err := engine.RunBatch(s.cfg.context(), s.jobs, engine.Options{
		Workers:     s.cfg.Workers,
		Collector:   s.cfg.Collector,
		LowerOracle: s.cfg.LowerOracle,
	})
	if err != nil {
		return nil, err
	}
	reports, err := engine.Reports(results)
	if err != nil {
		return nil, err
	}
	groups := make([][]cell, 0, len(s.sizes))
	i := 0
	for _, size := range s.sizes {
		g := make([]cell, size)
		for j := 0; j < size; j++ {
			g[j] = cellFromReport(reports[i])
			i++
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// meanRatio averages cells' ratios.
func meanRatio(cells []cell) float64 {
	if len(cells) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cells {
		sum += c.Ratio()
	}
	return sum / float64(len(cells))
}

// meanMakespan averages cells' makespans.
func meanMakespan(cells []cell) float64 {
	if len(cells) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cells {
		sum += float64(c.Makespan)
	}
	return sum / float64(len(cells))
}

// meanP50 and meanP99 average cells' per-transaction latency percentiles.
func meanP50(cells []cell) float64 {
	if len(cells) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cells {
		sum += float64(c.P50)
	}
	return sum / float64(len(cells))
}

func meanP99(cells []cell) float64 {
	if len(cells) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cells {
		sum += float64(c.P99)
	}
	return sum / float64(len(cells))
}

// meanBound averages cells' lower bounds.
func meanBound(cells []cell) float64 {
	if len(cells) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cells {
		sum += float64(c.Bound.Value)
	}
	return sum / float64(len(cells))
}

// checkf builds a Check from a condition and formatted detail.
func checkf(name string, ok bool, format string, args ...interface{}) Check {
	return Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}
