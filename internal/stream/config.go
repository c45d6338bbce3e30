package stream

import "fmt"

// ConfigError is a typed Config validation failure: the offending field
// and why it was rejected. Serve returns one before touching any serving
// state, so misconfiguration never panics deep in the loop.
type ConfigError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("stream: invalid Config.%s: %s", e.Field, e.Reason)
}

// CancelPolicy selects what Serve does when its context is cancelled
// mid-stream.
type CancelPolicy int

const (
	// CancelAbort stops immediately and returns the context error; queued
	// and in-flight work is dropped (the historical behavior).
	CancelAbort CancelPolicy = iota
	// CancelDrain performs a graceful shutdown: stop pulling new arrivals,
	// flush the admission queue through window cuts, finish every
	// in-flight window, and return the full summary with Result.Cancelled
	// set instead of an error.
	CancelDrain
)

// String names the policy for flags and reports.
func (p CancelPolicy) String() string {
	switch p {
	case CancelAbort:
		return "abort"
	case CancelDrain:
		return "drain"
	default:
		return fmt.Sprintf("cancel(%d)", int(p))
	}
}

// Validate checks the configuration without starting a run. Zero values
// that mean "use the default" (MaxWindow, QueueCap, PipelineDepth,
// MaxRequeue, the breaker settings) stay valid; negative or NaN values
// and missing workload pieces are rejected with a *ConfigError naming the
// field.
func (cfg *Config) Validate() error {
	if cfg.G == nil {
		return &ConfigError{"G", "nil graph"}
	}
	if cfg.Source == nil {
		return &ConfigError{"Source", "nil transaction source"}
	}
	if cfg.NumObjects <= 0 {
		return &ConfigError{"NumObjects", fmt.Sprintf("%d objects, need ≥ 1", cfg.NumObjects)}
	}
	if len(cfg.Home) != cfg.NumObjects {
		return &ConfigError{"Home", fmt.Sprintf("%d homes for %d objects", len(cfg.Home), cfg.NumObjects)}
	}
	n := cfg.G.NumNodes()
	for o, h := range cfg.Home {
		if int(h) < 0 || int(h) >= n {
			return &ConfigError{"Home", fmt.Sprintf("object %d homed at node %d outside [0,%d)", o, h, n)}
		}
	}
	if cfg.MaxWindow < 0 {
		return &ConfigError{"MaxWindow", fmt.Sprintf("negative window bound %d", cfg.MaxWindow)}
	}
	if cfg.QueueCap < 0 {
		return &ConfigError{"QueueCap", fmt.Sprintf("negative queue bound %d", cfg.QueueCap)}
	}
	if cfg.PipelineDepth < 0 {
		return &ConfigError{"PipelineDepth", fmt.Sprintf("negative pipeline depth %d", cfg.PipelineDepth)}
	}
	if cfg.Policy != Block && cfg.Policy != Reject {
		return &ConfigError{"Policy", fmt.Sprintf("unknown policy %d", int(cfg.Policy))}
	}
	if cfg.Deadline < 0 {
		return &ConfigError{"Deadline", fmt.Sprintf("negative deadline %s", cfg.Deadline)}
	}
	if cfg.OnCancel != CancelAbort && cfg.OnCancel != CancelDrain {
		return &ConfigError{"OnCancel", fmt.Sprintf("unknown cancel policy %d", int(cfg.OnCancel))}
	}
	if cfg.MaxRequeue < 0 {
		return &ConfigError{"MaxRequeue", fmt.Sprintf("negative requeue budget %d", cfg.MaxRequeue)}
	}
	if cfg.BreakerWindow < 0 {
		return &ConfigError{"BreakerWindow", fmt.Sprintf("negative rolling window %d", cfg.BreakerWindow)}
	}
	if !(cfg.InflationTrip >= 0) { // NaN too: a NaN breaker never trips
		return &ConfigError{"InflationTrip", fmt.Sprintf("trip threshold %g, need ≥ 0", cfg.InflationTrip)}
	}
	return nil
}
