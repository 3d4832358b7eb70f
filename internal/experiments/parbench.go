package experiments

import (
	"fmt"
	"runtime"

	"janus/internal/core"
	"janus/internal/workload"
)

// parWorkers is the worker count parbench compares against one worker.
const parWorkers = 4

// parEntry is one topology's comparison of the fig11 50-policy workload:
// the same instances solved with one worker and with the parallel
// branch-and-bound worker pool, each side averaged over Params.Runs seeds.
// Satisfaction counts are kept so a "speedup" produced by solving a
// different problem is visible immediately.
type parEntry struct {
	Topology         string
	Serial, Parallel measurement
}

// runParallelBench measures one-worker vs parWorkers-worker solves of the
// fig11 50-policy workload on Ans and Cwix.
func runParallelBench(p Params) ([]parEntry, error) {
	p = p.withDefaults()
	policies := p.scaled(50)
	var entries []parEntry
	for _, topoName := range []string{"Ans", "Cwix"} {
		side := func(workers int) (measurement, error) {
			return avg(p, func(seed int64) (measurement, error) {
				spec := workload.Spec{Policies: policies, EndpointsPerPolicy: 2, Seed: seed}
				return solveOnce(topoName, spec, core.Config{CandidatePaths: 5, Seed: seed, Workers: workers}, p.TimeLimit)
			})
		}
		serial, err := side(1)
		if err != nil {
			return nil, fmt.Errorf("parbench %s serial: %w", topoName, err)
		}
		parallel, err := side(parWorkers)
		if err != nil {
			return nil, fmt.Errorf("parbench %s parallel: %w", topoName, err)
		}
		entries = append(entries, parEntry{topoName, serial, parallel})
	}
	return entries, nil
}

// ParBench is the parbench experiment: runParallelBench as a text table.
// GOMAXPROCS is in the title because a 1-core container cannot show
// wall-clock speedup no matter how good the worker pool is.
func ParBench(p Params) ([]Table, error) {
	entries, err := runParallelBench(p)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: fmt.Sprintf("Parallel B&B — fig11 50-policy workload, serial vs %d workers (GOMAXPROCS=%d)",
			parWorkers, runtime.GOMAXPROCS(0)),
		Header: []string{"topology", "serial", "parallel", "speedup", "serial nodes", "par nodes", "serial allocs", "par allocs"},
	}
	for _, e := range entries {
		speedup := 0.0
		if e.Parallel.duration > 0 {
			speedup = e.Serial.duration.Seconds() / e.Parallel.duration.Seconds()
		}
		t.Rows = append(t.Rows, []string{
			e.Topology,
			fmtDur(e.Serial.duration),
			fmtDur(e.Parallel.duration),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprint(e.Serial.nodes),
			fmt.Sprint(e.Parallel.nodes),
			fmt.Sprint(e.Serial.allocs),
			fmt.Sprint(e.Parallel.allocs),
		})
	}
	return []Table{t}, nil
}
