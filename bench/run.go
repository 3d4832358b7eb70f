package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	goruntime "runtime"
	"runtime/metrics"
	"time"

	"janus/internal/store"
)

// target is the program under test as a run sees it: janusd's HTTP surface
// (rig) or runtime.Runtime called directly (direct).
type target interface {
	send(context.Context, event) (ack, error)
	// counters reads the program's own counters: GET /metrics, or the
	// calls behind it.
	counters(context.Context) (serverMetrics, error)
	// checks runs the output checks, ending with a crash-style restart.
	checks(context.Context) (store.RecoveryInfo, error)
	// beside starts the workload's second goroutine, if the target has
	// one, and returns the function that stops it and waits for it.
	beside(context.Context, *section) (stop func())
	// close stops the target and deletes its data directory.
	close() error
}

// options are the settings of one run.
type options struct {
	// Bench is BENCHMARK.json: the metrics a result must hold.
	Bench   benchmark
	Seed    int64
	Seconds float64
	// StatefulEdges is 0 in every workload; see README.md, "Stateful edges".
	StatefulEdges int
	// Setups is how many times set-up is done and timed; the last one is
	// the one the events run against.
	Setups int
	// DataRoot is the directory the journals are created under.
	DataRoot string
	// TraceOut, when set, is the file the traced run's spans are written to.
	TraceOut string
}

// numProbes is the length of the flow-arrival stream the reader cycles
// through, enough for every policy pair and a good many misses.
const numProbes = 1000

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// boot generates the instance and brings a target up on it, timing all of
// it: generating inputs, booting over an empty data directory, submitting
// the 50 writer graphs and the first, cold, full solve.
func boot(ctx context.Context, spec workloadSpec, o options, overHTTP bool, tr *tracer) (target, time.Duration, error) {
	start := time.Now()
	in, err := genInstance(spec.Topo, instanceSeed, o.StatefulEdges)
	if err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(o.DataRoot, spec.Name+"-")
	if err != nil {
		return nil, 0, err
	}
	var t target
	if overHTTP {
		var r *rig
		if r, err = bootServer(spec, in, dir); err == nil {
			t, err = r, r.setUp(ctx)
		}
	} else {
		var d *direct
		if d, err = bootDirect(ctx, spec, in, dir, tr); err == nil && spec.Open {
			d.probes = genProbes(o.Seed, numProbes)
		}
		t = d
	}
	if err != nil {
		_ = os.RemoveAll(dir) // the boot error is the one to report
		return nil, 0, fmt.Errorf("%s: set-up: %w", spec.Name, err)
	}
	return t, time.Since(start), nil
}

// eventSource returns the first n events of the workload's seeded stream.
// The generator works on an instance of its own, equal to the one the
// target was booted on.
func eventSource(spec workloadSpec, o options, n int) (func() (event, bool), error) {
	in, err := genInstance(spec.Topo, instanceSeed, o.StatefulEdges)
	if err != nil {
		return nil, err
	}
	next := (&graphGen{rng: rand.New(rand.NewSource(o.Seed)), in: in, redrawn: -1}).next
	if spec.Mix != nil {
		next = newEventGen(o.Seed, spec.Mix, in.Topo).next
	}
	sent := 0
	return func() (event, bool) {
		if sent == n {
			return event{}, false
		}
		sent++
		return next(), true
	}, nil
}

// section is one timed section and what was read around it.
type section struct {
	loop          loopResult
	before, after serverMetrics
	mem0, mem1    goruntime.MemStats
	scrapeMs      []float64
	// flows is how many arrivals the reader classified, delivered how
	// many of them a rule admitted.
	flows, delivered int64
	heapMB           float64
}

// runSection drives the events of next at the target, with the workload's
// second goroutine beside it.
func runSection(ctx context.Context, spec workloadSpec, t target, next func() (event, bool)) (section, error) {
	var s section
	var err error
	if s.before, err = t.counters(ctx); err != nil {
		return s, err
	}
	stopSide := t.beside(ctx, &s)
	// The live heap is read after every event, not once at the end: what
	// the path cache holds just then would decide a single reading.
	var liveMB []float64
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	send := func(ctx context.Context, ev event) (ack, error) {
		a, err := t.send(ctx, ev)
		metrics.Read(heap)
		liveMB = append(liveMB, float64(heap[0].Value.Uint64())/(1<<20))
		return a, err
	}
	goruntime.ReadMemStats(&s.mem0)
	if spec.Open {
		var due []event
		for ev, more := next(); more; ev, more = next() {
			due = append(due, ev)
		}
		s.loop = openLoop(ctx, wallClock{}, due, spec.Rate, send)
	} else {
		s.loop = closedLoop(ctx, wallClock{}, next, send)
	}
	goruntime.ReadMemStats(&s.mem1)
	stopSide()
	s.heapMB = median(liveMB)
	s.after, err = t.counters(ctx)
	return s, err
}

// runEndToEnd is a --trace 0 run: set up o.Setups times, drive the
// workload's events for o.Seconds with nothing traced, check the outputs.
func runEndToEnd(ctx context.Context, spec workloadSpec, o options) (result, error) {
	var t target
	var setupS []float64
	for i := 0; i < o.Setups; i++ {
		if t != nil {
			if err := t.close(); err != nil {
				return result{}, err
			}
		}
		var took time.Duration
		var err error
		if t, took, err = boot(ctx, spec, o, !spec.Open, nil); err != nil {
			return result{}, err
		}
		setupS = append(setupS, took.Seconds())
	}
	defer t.close() //nolint:errcheck // best effort on the way out; the run's own error matters more
	next, err := eventSource(spec, o, spec.events(o.Seconds))
	if err != nil {
		return result{}, err
	}
	s, err := runSection(ctx, spec, t, next)
	if err != nil {
		return result{}, err
	}
	_, checkErr := t.checks(ctx)
	ok := s.loop.ok()
	return newResult(o.Bench.EndToEnd, map[string]float64{
		"setup_s": median(setupS),
		// Time the event path was busy: in a closed loop the length of
		// the section, in the open loop the part of it the schedule did
		// not spend waiting for the next event to come due.
		"events_per_s":   ratio(float64(len(ok)), sum(s.loop.SvcMs)/1e3),
		"event_p50_ms":   percentile(ok, 50),
		"event_p90_ms":   percentile(ok, 90),
		"satisfied_frac": s.loop.satisfiedFrac(),
		"heap_mb":        s.heapMB,
	}, s.loop, checkErr)
}

// newResult assembles a run's result from the values computed for the
// metrics BENCHMARK.json declares, and says on standard error why a run
// that is not correct is not.
func newResult(defs []metricDef, values map[string]float64, loop loopResult, checkErr error) (result, error) {
	res := result{
		Correct:   loop.Failed == 0 && checkErr == nil,
		Attempted: len(loop.Events),
		Failed:    loop.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, computed := values[d.Name]
		if !computed {
			return res, fmt.Errorf("%s declares the metric %s, which the benchmark does not compute", benchmarkFile, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, declared := res.Metrics[name]; !declared {
				return res, fmt.Errorf("the benchmark computes the metric %s, which %s does not declare", name, benchmarkFile)
			}
		}
	}
	if loop.FirstEr != nil {
		fmt.Fprintf(os.Stderr, "bench: %d of %d events failed, the first with: %v\n", loop.Failed, len(loop.Events), loop.FirstEr)
	}
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "bench: output %v\n", checkErr)
	}
	return res, nil
}

// runTraced is a --trace 1 run. It drives the same events three times —
// over HTTP untraced (a), through the runtime untraced (b) and through
// the runtime traced (c) — so that the counters come from an untraced run,
// the times from the traced one, and the differences between the three are
// the server's and the tracing's own cost. A workload that is driven
// through the runtime anyway has no (a); its (b) stands in.
func runTraced(ctx context.Context, spec workloadSpec, o options) (result, error) {
	// Three sections and three set-ups share the run, so each section
	// holds a third of the events an untraced run times (a half where
	// there are only two sections to run).
	n := spec.events(o.Seconds) / 3
	if spec.Open {
		n = spec.events(o.Seconds) / 2
	}
	next, err := eventSource(spec, o, n)
	if err != nil {
		return result{}, err
	}
	var checkErr error
	// drive boots a fresh target, runs one section on it and checks it.
	drive := func(overHTTP bool, tr *tracer, next func() (event, bool)) (section, target, store.RecoveryInfo, error) {
		t, _, err := boot(ctx, spec, o, overHTTP, tr)
		if err != nil {
			return section{}, nil, store.RecoveryInfo{}, err
		}
		defer t.close() //nolint:errcheck // best effort on the way out
		s, err := runSection(ctx, spec, t, next)
		if err != nil {
			return s, t, store.RecoveryInfo{}, err
		}
		if d, isDirect := t.(*direct); isDirect && tr != nil {
			d.shots = d.oneShots(genProbes(o.Seed, numProbes))
		}
		recovery, err := t.checks(ctx)
		if err != nil && checkErr == nil {
			checkErr = err
		}
		return s, t, recovery, nil
	}

	var a, b, c section
	var recovery store.RecoveryInfo
	overHTTP := !spec.Open
	if overHTTP {
		if a, _, recovery, err = drive(true, nil, next); err != nil {
			return result{}, err
		}
		b, _, _, err = drive(false, nil, replay(a.loop.Events))
	} else {
		b, _, recovery, err = drive(false, nil, next)
		a = b
	}
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	var t target
	if c, t, _, err = drive(false, tr, replay(a.loop.Events)); err != nil {
		return result{}, err
	}
	if o.TraceOut != "" {
		if err := writeTrace(o.TraceOut, spec, o, tr.spans); err != nil {
			return result{}, err
		}
	}
	values := ledger(spec, a, b, c, tr.spans, t.(*direct), recovery)
	if n := values["trace.diverged_events"]; n > 0 && spec.Workers == 1 {
		fmt.Fprintf(os.Stderr, "bench: %s: the traced run diverged from the untraced one on %.0f events; its ledger describes a different run\n", spec.Name, n)
	}
	loop := a.loop
	for _, other := range []loopResult{b.loop, c.loop} {
		loop.Failed += other.Failed
		if loop.FirstEr == nil {
			loop.FirstEr = other.FirstEr
		}
	}
	return newResult(o.Bench.PerLayer, values, loop, checkErr)
}

func writeTrace(path string, spec workloadSpec, o options, spans []span) error {
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{spec.Name, o.Seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
