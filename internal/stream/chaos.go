package stream

import (
	"fmt"

	"dtmsched/internal/faults"
	"dtmsched/internal/graph"
)

// ChaosConfig parameterizes the serving chaos plan: one scalar fault
// rate fanned out over the fault classes with the same mapping the E20
// fault-inflation sweep uses, drawn recurrently so pressure persists
// over the whole serving horizon instead of clustering near step 0.
type ChaosConfig struct {
	// Rate is the per-site fault probability per chunk, in [0, 1].
	// Links draw a down and a slow interval at Rate each, nodes crash at
	// Rate/2, and dispatches drop at Rate/4 — the E20 mapping.
	Rate float64
	// Seed roots the plan's randomness (deterministic per seed).
	Seed int64
	// Horizon is the serving step range the plan covers; steps beyond it
	// are fault-free, so size it past the expected final clock.
	Horizon int64
	// Chunk is the redraw period in steps — the "serving window" the
	// plan is keyed to (0 = Horizon/16, min 8): every fault site rolls
	// fresh dice each chunk.
	Chunk int64
}

// NewChaos builds the chaos plan for a serving run, or nil when the rate
// is zero (serving then stays on the exact fault-free path).
func NewChaos(cc ChaosConfig, g *graph.Graph) (*faults.Plan, error) {
	if err := faults.CheckRate("chaos rate", cc.Rate); err != nil {
		return nil, &ConfigError{"Faults", err.Error()}
	}
	if cc.Rate == 0 {
		return nil, nil
	}
	if cc.Horizon < 1 {
		return nil, &ConfigError{"Faults", fmt.Sprintf("chaos horizon %d < 1", cc.Horizon)}
	}
	chunk := cc.Chunk
	if chunk <= 0 {
		chunk = cc.Horizon / 16
		if chunk < 8 {
			chunk = 8
		}
	}
	outage := chunk / 2
	if outage < 1 {
		outage = 1
	}
	p, err := faults.New(faults.Config{
		Seed:         cc.Seed,
		Horizon:      cc.Horizon,
		Recur:        chunk,
		LinkDownRate: cc.Rate,
		LinkSlowRate: cc.Rate,
		CrashRate:    cc.Rate / 2,
		DropRate:     cc.Rate / 4,
		MeanOutage:   outage,
	}, g)
	if err != nil {
		return nil, err
	}
	return p, nil
}
