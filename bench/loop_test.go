package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock only moves when told to: by Sleep, or by a send that takes
// scripted service time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// Ten events a second; the second takes 250 ms, so the third and fourth are
// sent late and their latency counts the wait from when they were due.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	service := []time.Duration{10, 250, 10, 10, 10}
	i := 0
	send := func(context.Context, event) (ack, error) {
		clk.Sleep(service[i] * time.Millisecond)
		i++
		return ack{Satisfied: 3, Policies: 4}, nil
	}
	r := openLoop(context.Background(), clk, make([]event, 5), 10, send)

	// Event 2 is due at 200 ms, sent at 350 (late 150), acked at 360: 160.
	// Event 3 is due at 300, sent at 360 (late 60), acked at 370: 70.
	wantLat := []float64{10, 250, 160, 70, 10}
	wantLate := []float64{0, 0, 150, 60, 0}
	wantSvc := []float64{10, 250, 10, 10, 10}
	for k := range wantLat {
		if !near(r.LatMs[k], wantLat[k]) || !near(r.LateMs[k], wantLate[k]) || !near(r.SvcMs[k], wantSvc[k]) {
			t.Errorf("event %d: latency %v late %v service %v, want %v %v %v",
				k, r.LatMs[k], r.LateMs[k], r.SvcMs[k], wantLat[k], wantLate[k], wantSvc[k])
		}
	}
	if want := 410 * time.Millisecond; r.Wall != want {
		t.Errorf("wall %v, want %v", r.Wall, want)
	}
	if got := r.satisfiedFrac(); !near(got, 0.75) {
		t.Errorf("satisfied fraction %v, want 0.75", got)
	}
}

// The closed loop sends every event it is given, one after the other, and
// keeps a failed event out of the latencies but in the counts.
func TestClosedLoopFailures(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	n := 0
	send := func(context.Context, event) (ack, error) {
		clk.Sleep(40 * time.Millisecond)
		n++
		if n == 2 {
			return ack{}, errors.New("refused")
		}
		return ack{Satisfied: 1, Policies: 1}, nil
	}
	r := closedLoop(context.Background(), clk, replay(make([]event, 3)), send)
	if len(r.Events) != 3 || r.Failed != 1 || len(r.ok()) != 2 || r.FirstEr == nil {
		t.Errorf("%d events, %d failed, %d timed, first error %v; want 3, 1, 2 and an error", len(r.Events), r.Failed, len(r.ok()), r.FirstEr)
	}
	if r.Wall != 120*time.Millisecond {
		t.Errorf("wall %v, want 120ms", r.Wall)
	}
}
