package runtime

import (
	"context"
	"strings"
	"testing"
	"time"

	"janus/internal/dataplane"
	"janus/internal/topo"
)

// TestSleepContextAbortsOnCancel pins the default backoff sleep's contract:
// a cancelled context returns immediately instead of sitting out the full
// interval.
func TestSleepContextAbortsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	sleepContext(ctx, time.Hour)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled sleep took %v, want immediate return", elapsed)
	}
}

// TestRetryBackoffAbortsOnContextCancel is the regression test for the
// retry loop honouring cancellation: with a switch that fails every op and
// hour-long backoff intervals, cancelling the context after the first
// failure must abort the event within the first backoff sleep rather than
// burning the remaining retry budget in real time.
func TestRetryBackoffAbortsOnContextCancel(t *testing.T) {
	tp, _, conf := statefulSetup(t)
	r := start(t, conf, nil)
	r.SetRetryPolicy(RetryPolicy{
		MaxAttempts: 4,
		Base:        time.Hour,
		Cap:         time.Hour,
	})
	midID := nodeNamed(tp, "mid")
	r.Network().InjectFaults(dataplane.FaultPlan{
		Seed:     3,
		Switches: map[topo.NodeID]dataplane.SwitchFaults{midID: {FailRate: 1}},
	})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	began := time.Now()
	err := r.MoveEndpoint(ctx, "c1", midID)
	elapsed := time.Since(began)
	if err == nil {
		t.Fatal("move with a cancelled context and a dead switch should fail")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("error should surface the cancellation, got: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled retry took %v; the backoff sleep ignored the context", elapsed)
	}
	// Aborted retries must not quarantine: the switch was never given its
	// full retry budget.
	if m := r.Metrics(); m.QuarantinedSwitches != 0 {
		t.Errorf("QuarantinedSwitches = %d after aborted retries, want 0", m.QuarantinedSwitches)
	}
}
