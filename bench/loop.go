package main

import (
	"context"
	"time"
)

// sender delivers one event to the program under test and returns once the
// event is acknowledged: installed, audited, journaled and fsynced, and the
// classifier swapped.
type sender func(context.Context, event) (ack, error)

// loopResult holds one timed section. The slices are indexed by event, so
// two sections over the same events can be compared event for event; a
// failed event has latency -1 and is left out of every statistic but the
// failure count.
type loopResult struct {
	Events  []event
	LatMs   []float64
	SvcMs   []float64 // send to ack; in a closed loop the same as LatMs
	LateMs  []float64 // open loop only: how long after its due time each event was sent
	Acks    []ack
	Failed  int
	FirstEr error
	Wall    time.Duration
}

// ok returns the latencies of the acknowledged events.
func (r *loopResult) ok() []float64 {
	out := make([]float64, 0, len(r.LatMs))
	for _, ms := range r.LatMs {
		if ms >= 0 {
			out = append(out, ms)
		}
	}
	return out
}

func (r *loopResult) record(ev event, ms, svcMs float64, a ack, err error) {
	if err != nil {
		r.Failed++
		if r.FirstEr == nil {
			r.FirstEr = err
		}
		ms = -1
	}
	r.Events = append(r.Events, ev)
	r.LatMs = append(r.LatMs, ms)
	r.SvcMs = append(r.SvcMs, svcMs)
	r.Acks = append(r.Acks, a)
}

// satisfiedFrac is the mean over acknowledged events of satisfied/policies.
func (r *loopResult) satisfiedFrac() float64 {
	var fracs []float64
	for i, a := range r.Acks {
		if r.LatMs[i] >= 0 && a.Policies > 0 {
			fracs = append(fracs, float64(a.Satisfied)/float64(a.Policies))
		}
	}
	return mean(fracs)
}

// clock is the time source of the loops; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// closedLoop is one client that sends its next event only after the
// previous one is acknowledged, so a slower program is offered less load.
// It sends every event next has.
func closedLoop(ctx context.Context, clk clock, next func() (event, bool), send sender) loopResult {
	var r loopResult
	start := clk.Now()
	for ev, more := next(); more; ev, more = next() {
		sent := clk.Now()
		a, err := send(ctx, ev)
		took := ms(clk.Now().Sub(sent))
		r.record(ev, took, took, a, err)
	}
	r.Wall = clk.Now().Sub(start)
	return r
}

// openLoop sends events on a fixed schedule whether or not the program has
// caught up: event i is due i/rate seconds after the start and is timed
// from that moment, not from when it was sent, so the wait a slow event
// imposes on the ones queued behind it is counted as theirs.
func openLoop(ctx context.Context, clk clock, events []event, perSecond float64, send sender) loopResult {
	var r loopResult
	start := clk.Now()
	for i, ev := range events {
		due := start.Add(time.Duration(float64(i) / perSecond * float64(time.Second)))
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		sent := clk.Now()
		r.LateMs = append(r.LateMs, ms(sent.Sub(due)))
		a, err := send(ctx, ev)
		acked := clk.Now()
		r.record(ev, ms(acked.Sub(due)), ms(acked.Sub(sent)), a, err)
	}
	r.Wall = clk.Now().Sub(start)
	return r
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// replay returns a next function that walks a recorded event list.
func replay(events []event) func() (event, bool) {
	i := 0
	return func() (event, bool) {
		if i == len(events) {
			return event{}, false
		}
		i++
		return events[i-1], true
	}
}
