package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"dtmsched/internal/xrand"
)

// phase is the outcome of one measured stretch of a workload.
type phase struct {
	e2e, layers       map[string]float64
	attempted, failed int64
	problems          []string
	digests           []string
	// units are the timed jobs (offline) or streams (serve) in input
	// order.
	units []unit
	// medianRate takes throughput as the median of the units' rates, so
	// a burst of load from outside the process moves it less than a total
	// would; offline jobs differ too much in size for that and are
	// totalled.
	medianRate bool
	// jobMs is every engine job's wall time, by cell (serve workloads
	// have one).
	jobMs map[string][]float64
	// ops, mallocs and heap give the allocations per op.
	ops, mallocs, heap float64
}

// unit is one timed job or stream.
type unit struct {
	txns float64
	wall time.Duration
}

func newPhase() *phase {
	return &phase{e2e: map[string]float64{}, layers: map[string]float64{}, jobMs: map[string][]float64{}}
}

// fail records n operations whose output was wrong.
func (p *phase) fail(n int64, why string) {
	p.problems = append(p.problems, why)
	p.failed += n
}

// samples is the number of job walls.
func (p *phase) samples() int {
	n := 0
	for _, walls := range p.jobMs {
		n += len(walls)
	}
	return n
}

// alloc adds the allocations between two memory snapshots.
func (p *phase) alloc(m0, m1 *runtime.MemStats) {
	p.mallocs += float64(m1.Mallocs - m0.Mallocs)
	p.heap += float64(m1.TotalAlloc - m0.TotalAlloc)
}

// timing fills the timing and allocation metrics.
func (p *phase) timing() {
	var txns, secs float64
	rates := make([]float64, len(p.units))
	for i, u := range p.units {
		txns += u.txns
		secs += u.wall.Seconds()
		rates[i] = ratio(u.txns, u.wall.Seconds())
	}
	p.e2e["txn_per_s"] = ratio(txns, secs)
	if p.medianRate {
		_, p.e2e["txn_per_s"], _ = quartiles(rates)
	}
	// The median is taken per cell and averaged: pooled over cells whose
	// jobs differ several-fold in size, it falls between their modes and
	// swings with the mix. The tail is pooled.
	var all []float64
	for _, walls := range p.jobMs {
		p.e2e["job_ms_p50"] += percentile(walls, 500) / float64(len(p.jobMs))
		all = append(all, walls...)
	}
	p.e2e["job_ms_p98"] = percentile(all, 980)
	p.e2e["allocs_per_op"] = ratio(p.mallocs, p.ops)
	p.e2e["alloc_bytes_per_op"] = ratio(p.heap, p.ops)
}

// env is a workload after set-up.
type env interface {
	// warmup runs the untimed operations that belong to set-up.
	warmup(ctx context.Context) error
	// measure runs the workload for about budget, and at least its
	// minimum work. With a tracer it runs every job or stream a second
	// time, traced, and returns that pass too.
	measure(ctx context.Context, budget time.Duration, tr *tracer) (plain, traced *phase, err error)
}

// setup builds a workload's topologies and runs its warm-up, repeats
// times, and returns the last environment and every set-up time.
func setup(ctx context.Context, wl workload, seed int64, repeats int) (env, []time.Duration, error) {
	var (
		e     env
		times []time.Duration
	)
	for r := 0; r < repeats; r++ {
		t0 := time.Now()
		if wl.Offline != nil {
			oe, err := newOfflineEnv(wl.Name, wl.Offline, seed)
			if err != nil {
				return nil, nil, err
			}
			e = oe
		} else {
			e = newServeEnv(wl.Name, wl.Serve, seed)
		}
		if err := e.warmup(ctx); err != nil {
			return nil, nil, fmt.Errorf("set-up of %s: %w", wl.Name, err)
		}
		times = append(times, time.Since(t0))
	}
	return e, times, nil
}

// settings are what two records must share to be compared.
type settings struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Seconds    float64  `json:"seconds"`
	Smoke      bool     `json:"smoke"`
	Trace      bool     `json:"trace"`
	Config     workload `json:"config"`
}

// record is one run's full result, as -json writes it.
type record struct {
	Workload       string           `json:"workload"`
	Seed           int64            `json:"seed"`
	Revision       string           `json:"vcs_revision"`
	Settings       settings         `json:"settings"`
	Correct        bool             `json:"correct"`
	Attempted      int64            `json:"attempted"`
	Failed         int64            `json:"failed"`
	Problems       []string         `json:"problems,omitempty"`
	Samples        int              `json:"samples"`
	SetupRunsS     []float64        `json:"setup_runs_s"`
	EndToEnd       map[string]value `json:"end_to_end"`
	TracedEndToEnd map[string]value `json:"traced_end_to_end,omitempty"`
	PerLayer       map[string]value `json:"per_layer,omitempty"`
	Digests        []string         `json:"digests"`

	spans []Span
}

// runOptions selects one benchmark run.
type runOptions struct {
	Workload workload
	Seed     int64
	Seconds  float64
	Trace    bool
	Smoke    bool
}

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 5

// warmupSeed derives the warm-up inputs. It is fixed, so set-up is the
// same work whatever the run's seed and setup_s does not vary with it.
const warmupSeed = xrand.DefaultSeed

// run sets a workload up and measures it. With Trace every job or stream
// runs untraced and then traced; the end-to-end metrics come from the
// untraced runs, the per-layer metrics from the traced ones, and the
// tracing overhead from the two walls of each input.
func run(ctx context.Context, o runOptions) (*record, error) {
	wl := o.Workload
	repeats := setupRepeats
	if o.Smoke {
		wl, repeats = wl.smoke(), 1
	}
	e, setups, err := setup(ctx, wl, o.Seed, repeats)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.Trace {
		tr = newTracer()
	}
	plain, traced, err := e.measure(ctx, time.Duration(o.Seconds*float64(time.Second)), tr)
	if err != nil {
		return nil, err
	}
	plain.e2e["setup_s"] = medianSeconds(setups)

	rec := &record{
		Workload: wl.Name,
		Seed:     o.Seed,
		Revision: revision(),
		Settings: settings{
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Seconds: o.Seconds, Smoke: o.Smoke, Trace: o.Trace, Config: wl,
		},
		Attempted: plain.attempted,
		Failed:    plain.failed,
		Problems:  plain.problems,
		Samples:   plain.samples(),
		EndToEnd:  reading(endToEnd, plain.e2e),
		Digests:   plain.digests,
	}
	for _, d := range setups {
		rec.SetupRunsS = append(rec.SetupRunsS, d.Seconds())
	}
	if traced != nil {
		traced.e2e["setup_s"] = plain.e2e["setup_s"]
		traced.layers["bench.trace_overhead"] = overhead(plain.units, traced.units)
		rec.TracedEndToEnd = reading(endToEnd, traced.e2e)
		rec.PerLayer = reading(perLayer, traced.layers)
		rec.Attempted += traced.attempted
		rec.Failed += traced.failed
		rec.Problems = append(rec.Problems, traced.problems...)
		if n := min(len(plain.digests), len(traced.digests)); !slices.Equal(plain.digests[:n], traced.digests[:n]) {
			rec.Problems = append(rec.Problems, "traced run's digests differ from the untraced run's on the same inputs")
		}
		rec.spans = tr.spans
	}
	rec.Correct = len(rec.Problems) == 0
	return rec, nil
}

// overhead is how much longer the traced run took than the untraced one
// on the inputs both ran.
func overhead(plain, traced []unit) float64 {
	var a, b time.Duration
	for i := 0; i < min(len(plain), len(traced)); i++ {
		a += plain[i].wall
		b += traced[i].wall
	}
	return ratio(float64(b-a), float64(a))
}

// revision is the VCS revision the binary was built from ("unknown"
// outside a repository), marked "-dirty" for a modified tree.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "-dirty"
		}
	}
	return rev + dirty
}

// report prints a record for people: every metric by name with its unit,
// the digests, and any correctness problem.
func (r *record) report(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d: attempted %d, failed %d, correct %v\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Correct)
	if pm, ok := tailPercentile(r.Samples); ok {
		fmt.Fprintf(w, "%d job walls; p%g is the highest percentile with ten beyond it\n", r.Samples, float64(pm)/10)
	} else {
		fmt.Fprintf(w, "%d job walls: too few for a median with ten beyond it\n", r.Samples)
	}
	fmt.Fprintf(w, "provenance: %s GOMAXPROCS=%d NumCPU=%d revision %s\n",
		r.Settings.GoVersion, r.Settings.GOMAXPROCS, r.Settings.NumCPU, r.Revision)
	printMetrics(w, "end-to-end", endToEnd, r.EndToEnd, nil)
	if r.TracedEndToEnd != nil {
		printMetrics(w, "traced end-to-end", endToEnd, r.TracedEndToEnd, r.EndToEnd)
		printMetrics(w, "per-layer", perLayer, r.PerLayer, nil)
	}
	for _, d := range r.Digests {
		fmt.Fprintf(w, "digest %s\n", d)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "FAILED %s\n", p)
	}
}

// printMetrics prints one line per metric; with base, each line also
// gives the change from base (the tracing overhead).
func printMetrics(w io.Writer, title string, defs []metricDef, vals, base map[string]value) {
	for _, d := range defs {
		n, v := d.Name, vals[d.Name]
		fmt.Fprintf(w, "%s %-32s %16.6f %s", title, n, v.Value, v.Unit)
		if b := base[n].Value; base != nil && b != 0 {
			fmt.Fprintf(w, " (%+.1f%% vs untraced)", 100*(v.Value-b)/b)
		}
		fmt.Fprintln(w)
	}
}
