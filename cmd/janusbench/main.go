// Command janusbench regenerates the tables and figures of the Janus
// paper's evaluation (§7) and prints them as text tables.
//
// Usage:
//
//	janusbench                     # run every experiment at default scale
//	janusbench -exp fig11          # one experiment
//	janusbench -scale 2 -runs 3    # larger sweeps, averaged over 3 seeds
//	janusbench -list               # list experiments
//	janusbench -exp parbench -runs 5   # one worker vs four on fig11
//	janusbench -cpuprofile cpu.pprof -exp fig11   # profile a run
//
// See EXPERIMENTS.md for the paper-vs-measured discussion.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"janus/internal/experiments"
)

func main() {
	os.Exit(run())
}

// run carries the real main so profile-stopping defers execute before the
// process exits.
func run() int {
	exp := flag.String("exp", "", "experiment to run (empty = all)")
	scale := flag.Float64("scale", 1, "size multiplier for policy counts")
	runs := flag.Int("runs", 1, "seeds to average over (paper: 10)")
	seed := flag.Int64("seed", 1, "base random seed")
	limit := flag.Duration("timelimit", 60*time.Second, "per-solve time limit")
	list := flag.Bool("list", false, "list experiments and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("%-8s %s\n", e.Name, e.Description)
		}
		return 0
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "janusbench: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "janusbench: cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close() // best-effort: the profile is already flushed
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "janusbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush accurate allocation stats into the profile
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "janusbench: memprofile: %v\n", err)
			}
		}()
	}

	params := experiments.Params{Scale: *scale, Seed: *seed, Runs: *runs, TimeLimit: *limit}

	todo := experiments.All
	if *exp != "" {
		e, ok := experiments.Find(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "janusbench: unknown experiment %q (use -list)\n", *exp)
			return 1
		}
		todo = []experiments.Experiment{e}
	}
	for _, e := range todo {
		start := time.Now()
		fmt.Printf("== %s: %s ==\n", e.Name, e.Description)
		tables, err := e.Run(params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "janusbench: %s: %v\n", e.Name, err)
			return 1
		}
		for _, t := range tables {
			fmt.Println(t)
		}
		fmt.Printf("(%s completed in %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
