// Command bench is the repository's benchmark: it times what an operator of
// janusd feels — from POST /events/* to "installed, audited, journaled,
// classifier swapped" — on four workloads, and on a separate traced run
// breaks that time down by module. README.md beside this file defines the
// workloads and every metric.
//
// One run, as the benchmark driver makes it:
//
//	go run ./bench --workload churn-ans --seed 1 --seconds 20 --trace 0
//
// prints the end-to-end metrics (--trace 1: the per-layer ledger) by name
// and unit, and last one JSON object {"correct", "attempted", "failed",
// "metrics"}. Without --workload it runs all four workloads, -reps
// untraced runs on consecutive seeds and one traced run each, and with
// -json writes them to a report that -compare can set against another:
//
//	go run ./bench -json a.json
//	go run ./bench -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	bench, err := loadBenchmark(benchmarkFile)
	if err != nil {
		fatal(err)
	}
	workload := flag.String("workload", "", "run this one workload and print its result as JSON (default: all of them, as a report)")
	seed := flag.Int64("seed", 1, "seed of the event, graph-op and flow-arrival streams")
	secs := flag.Float64("seconds", float64(bench.RunSeconds), "nominal length of the timed section: it holds the workload's rate × seconds events")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics of an untraced run, 1 the per-layer ledger of a traced one")
	traceOut := flag.String("trace-out", "", "write the traced run's spans to this file")
	reps := flag.Int("reps", 3, "without -workload: untraced runs per workload, on seeds seed, seed+1, ...")
	jsonOut := flag.String("json", "", "without -workload: write the report to this file")
	compare := flag.Bool("compare", false, "compare two reports given as arguments: bench -compare a.json b.json")
	smoke := flag.Bool("smoke", false, "three dozen events (a dozen traced) on the smallest topology and one set-up: checks that everything runs, measures nothing")
	statefulEdges := flag.Int("stateful-edges", 0, "escalation edges per policy; not a workload, but the way to see why they are left out (README.md)")
	dataDir := flag.String("data-dir", ".bench_build/data", "directory the journals are written under")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		regressed, err := compareFiles(bench.EndToEnd, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	o := options{Bench: bench, Seed: *seed, Seconds: *secs, Setups: 3, DataRoot: *dataDir, TraceOut: *traceOut, StatefulEdges: *statefulEdges}
	specs := workloads
	if *smoke {
		*reps, o.Setups, o.Seconds = 1, 1, smokeSeconds
		specs = nil
		for _, spec := range workloads {
			specs = append(specs, smokeSizing(spec))
		}
	}
	if err := os.MkdirAll(o.DataRoot, 0o755); err != nil {
		fatal(err)
	}
	ctx := context.Background()

	if *workload != "" {
		var spec workloadSpec
		for _, s := range specs {
			if s.Name == *workload {
				spec = s
			}
		}
		if spec.Name == "" {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		run := runEndToEnd
		if *trace == 1 {
			run = runTraced
		}
		res, err := run(ctx, spec, o)
		if err != nil {
			fatal(err)
		}
		printMetrics(spec.Name, res)
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	rep, err := runAll(ctx, specs, o, *reps)
	if err != nil {
		fatal(err)
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// smokeSeconds is the run length that goes with smokeSizing: the traced
// run, which gives each of its sections a third of a run's events, then
// drives a dozen.
const smokeSeconds = 3

// smokeSizing shrinks a workload until a run of it only shows that every
// code path runs: the smallest topology, and a dozen events per second of
// --seconds — the first twelve of a churn stream hold every kind of event
// — or four graph-churn ops, each of them a full solve. With it goes a
// single set-up (options.Setups).
func smokeSizing(spec workloadSpec) workloadSpec {
	spec.Topo = "Ans"
	spec.Rate = 12
	if spec.Mix == nil {
		spec.Rate = 4
	}
	return spec
}

// printMetrics lists a result by metric name, with units.
func printMetrics(workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d events attempted, %d failed, outputs correct: %v\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
