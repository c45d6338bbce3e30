package obs

import (
	"sort"
	"sync"
	"time"
)

// Config tunes a Collector.
type Config struct {
	// Traces retains full per-run traces (move/exec spans and derived
	// schedule metrics) for JSONL / Chrome export. Off, the collector is
	// metrics-only: the registry still aggregates latency, travel, and
	// stage counters, but memory stays O(metrics) for arbitrarily large
	// sweeps.
	Traces bool
	// MaxTraceRuns caps the number of retained run traces (0 = no cap).
	// Runs beyond the cap still feed the registry. The retained set is
	// the lowest (job, name) keys, so it is deterministic under
	// concurrent recording.
	MaxTraceRuns int
}

// Collector aggregates observability for a set of engine runs: a metrics
// Registry fed by every stage completion and finished run, and (when
// Config.Traces is set) structured per-run traces. All methods are safe
// for concurrent use by RunBatch workers, and all methods are no-ops on a
// nil receiver — the engine calls them unconditionally, and the nil path
// costs zero allocations (enforced by TestNilCollectorZeroAllocs).
type Collector struct {
	cfg Config
	reg *Registry

	mu    sync.Mutex
	runs  []*runTrace
	index map[runKey]*runTrace
}

// runKey identifies a run trace: the job index within its batch plus the
// job name (names disambiguate jobs from different batches sharing an
// index).
type runKey struct {
	job  int
	name string
}

// NewCollector returns a collector with trace retention enabled — the
// configuration behind dtmbench -trace and dtmsched trace.
func NewCollector() *Collector { return NewCollectorConfig(Config{Traces: true}) }

// NewMetricsCollector returns a metrics-only collector (no trace
// retention), suitable for full-size sweeps.
func NewMetricsCollector() *Collector { return NewCollectorConfig(Config{}) }

// NewCollectorConfig returns a collector with explicit configuration.
func NewCollectorConfig(cfg Config) *Collector {
	return &Collector{cfg: cfg, reg: NewRegistry()}
}

// Registry exposes the collector's metric registry (nil-safe).
func (c *Collector) Registry() *Registry {
	if c == nil {
		return nil
	}
	return c.reg
}

// Tracing reports whether the collector retains run traces. The engine
// uses it to decide whether the simulator should record its event stream.
func (c *Collector) Tracing() bool { return c != nil && c.cfg.Traces }

// Stage records one pipeline stage completion: per-stage wall time and
// completion/error counters in the registry, plus a stage record on the
// job's trace when tracing. The stage string is the engine's Stage name
// ("generate", "schedule", "verify", "measure", "done").
func (c *Collector) Stage(job int, name, stage string, wall time.Duration, err error) {
	if c == nil {
		return
	}
	c.reg.Counter("engine_stage_wall_us", "stage", stage).Add(wall.Microseconds())
	c.reg.Counter("engine_stage_total", "stage", stage).Inc()
	if err != nil {
		c.reg.Counter("engine_stage_errors_total", "stage", stage).Inc()
	}
	if !c.cfg.Traces {
		return
	}
	r := c.run(job, name)
	rec := stageRec{Stage: stage}
	if err != nil {
		rec.Err = err.Error()
	}
	c.mu.Lock()
	r.Stages = append(r.Stages, rec)
	c.mu.Unlock()
}

// run returns (creating if needed) the trace for (job, name).
func (c *Collector) run(job int, name string) *runTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.index == nil {
		c.index = map[runKey]*runTrace{}
	}
	if r, ok := c.index[runKey{job, name}]; ok {
		return r
	}
	r := &runTrace{Job: job, Name: name}
	c.index[runKey{job, name}] = r
	c.runs = append(c.runs, r)
	return r
}

// AddRun attaches one finished run's trace: its algorithm, makespan,
// derived schedule metrics, and move/exec spans in canonical order (see
// SortSpans). A no-op unless the collector traces.
func (c *Collector) AddRun(job int, name, algorithm string, makespan int64, m *ScheduleMetrics, moves []Move, execs []Exec) {
	if !c.Tracing() {
		return
	}
	r := c.run(job, name)
	c.mu.Lock()
	r.Algorithm = algorithm
	r.Makespan = makespan
	r.Metrics = m
	r.Moves = moves
	r.Execs = execs
	over := c.cfg.MaxTraceRuns > 0 && len(c.runs) > c.cfg.MaxTraceRuns
	c.mu.Unlock()
	if over {
		c.trimRuns()
	}
}

// trimRuns drops the highest-keyed traces beyond MaxTraceRuns, keeping the
// retained set deterministic regardless of recording order.
func (c *Collector) trimRuns() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.MaxTraceRuns <= 0 || len(c.runs) <= c.cfg.MaxTraceRuns {
		return
	}
	runs := append([]*runTrace(nil), c.runs...)
	sortRuns(runs)
	c.runs = runs[:c.cfg.MaxTraceRuns]
	c.index = make(map[runKey]*runTrace, len(c.runs))
	for _, r := range c.runs {
		c.index[runKey{r.Job, r.Name}] = r
	}
}

// sortRuns orders traces by (job, name).
func sortRuns(runs []*runTrace) {
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].Job != runs[j].Job {
			return runs[i].Job < runs[j].Job
		}
		return runs[i].Name < runs[j].Name
	})
}
