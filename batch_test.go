package dtmsched_test

import (
	"context"
	"errors"
	"testing"

	dtm "dtmsched"
)

// TestRunBatchCancelledJobHasNoReport: a job cancelled after its schedule
// exists still fails with exactly one of Report / Err set — the error.
func TestRunBatchCancelledJobHasNoReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sys := dtm.NewCliqueSystem(16, dtm.Uniform(4, 2), dtm.Seed(1))
	hook := func(ev dtm.RunEvent) {
		if ev.Stage == dtm.StageSchedule {
			cancel()
		}
	}
	res, err := dtm.RunBatch(ctx, []dtm.BatchJob{{System: sys, Alg: dtm.AlgGreedy}}, dtm.BatchOptions{Workers: 1, Hook: hook})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	if res[0].Report != nil || !errors.Is(res[0].Err, context.Canceled) {
		t.Fatalf("result = (report %v, err %v), want (nil, context.Canceled)", res[0].Report, res[0].Err)
	}
}
