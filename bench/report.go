package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
)

// fullReport is what a run over all workloads writes with -json, and what
// -compare reads.
type fullReport struct {
	Host      hostFacts                 `json:"host"`
	Seed      int64                     `json:"seed"`
	Reps      int                       `json:"reps"`
	Seconds   float64                   `json:"seconds"`
	Correct   bool                      `json:"correct"`
	Workloads map[string]workloadReport `json:"workloads"`
}

// hostFacts are the properties of the machine the numbers depend on.
type hostFacts struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	DataDirFS  string `json:"data_dir_filesystem"`
}

type workloadReport struct {
	// EndToEnd has one value per untraced run, in seed order.
	EndToEnd map[string]series `json:"end_to_end"`
	// PerLayer is the ledger of the one traced run.
	PerLayer map[string]metricValue `json:"per_layer"`
}

// series is one metric over the repetitions of a run.
type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func newSeries(unit string, values []float64) series {
	s := series{Unit: unit, Median: median(values), Values: values}
	if len(values) > 0 {
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)
		s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	}
	return s
}

// runAll runs every workload: reps untraced runs on consecutive seeds, the
// way the benchmark driver judges steadiness, and one traced run. The
// untraced runs go round the workloads, seed by seed, so that a workload's
// runs are spread over the whole set: this kind of host runs a quarter
// slower or faster for minutes at a time, and ten runs back to back would
// all fall in one such phase and set its mark on the median.
func runAll(ctx context.Context, specs []workloadSpec, o options, reps int) (fullReport, error) {
	rep := fullReport{
		Host: hostFacts{
			NumCPU:     goruntime.NumCPU(),
			GOMAXPROCS: goruntime.GOMAXPROCS(0),
			GoVersion:  goruntime.Version(),
			DataDirFS:  filesystemOf(o.DataRoot),
		},
		Seed: o.Seed, Reps: reps, Seconds: o.Seconds, Correct: true,
		Workloads: map[string]workloadReport{},
	}
	values := map[string]map[string][]float64{}
	for r := 0; r < reps; r++ {
		for _, spec := range specs {
			run := o
			run.Seed = o.Seed + int64(r)
			res, err := runEndToEnd(ctx, spec, run)
			if err != nil {
				return rep, err
			}
			printMetrics(fmt.Sprintf("%s seed %d", spec.Name, run.Seed), res)
			rep.Correct = rep.Correct && res.Correct
			if values[spec.Name] == nil {
				values[spec.Name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[spec.Name][name] = append(values[spec.Name][name], m.Value)
			}
		}
	}
	for _, spec := range specs {
		traced, err := runTraced(ctx, spec, o)
		if err != nil {
			return rep, err
		}
		printMetrics(spec.Name+" traced", traced)
		rep.Correct = rep.Correct && traced.Correct
		wr := workloadReport{EndToEnd: map[string]series{}, PerLayer: traced.Metrics}
		for _, d := range o.Bench.EndToEnd {
			wr.EndToEnd[d.Name] = newSeries(d.Unit, values[spec.Name][d.Name])
		}
		rep.Workloads[spec.Name] = wr
	}
	return rep, nil
}

// filesystemOf names the filesystem type dir is on, from /proc/mounts: the
// journal's fsync is that filesystem's, and a tmpfs one costs nothing.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, fs = mount, f[2]
		}
	}
	return fs
}

// Verdicts of a comparison.
const (
	pass       = "pass"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict compares one end-to-end metric of a baseline with a candidate.
// The candidate regressed when its median is worse than the baseline's by
// more than the bound. Where either side's own spread (interquartile
// distance over median) is wider than the bound the runs cannot tell, and
// the verdict is unresolved — unless every candidate run beats every
// baseline run, which no spread explains away.
func verdict(def metricDef, base, cand []float64) (string, float64) {
	if len(base) == 0 || len(cand) == 0 {
		return unresolved, 0
	}
	sign := 1.0 // positive worse means the candidate is worse
	if def.Better == higher {
		sign = -1
	}
	worse := sign * ratio(median(cand)-median(base), median(base))
	if spread(base) > def.Bound || spread(cand) > def.Bound {
		allBetter := true
		for _, c := range cand {
			for _, b := range base {
				if sign*(c-b) >= 0 {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return unresolved, worse
		}
	}
	if worse > def.Bound {
		return regressed, worse
	}
	return pass, worse
}

// compareFiles prints, per workload and end-to-end metric, the verdict on
// report b against baseline a, and returns whether anything regressed.
func compareFiles(defs []metricDef, pathA, pathB string) (bool, error) {
	reports := make([]fullReport, 2)
	for i, path := range []string{pathA, pathB} {
		raw, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(raw, &reports[i]); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := reports[0], reports[1]
	anyRegressed := false
	for _, spec := range workloads {
		fmt.Printf("%s\n", spec.Name)
		for _, def := range defs {
			sa, sb := a.Workloads[spec.Name].EndToEnd[def.Name], b.Workloads[spec.Name].EndToEnd[def.Name]
			v, worse := verdict(def, sa.Values, sb.Values)
			anyRegressed = anyRegressed || v == regressed
			fmt.Printf("  %-16s %12.4f -> %12.4f %-6s %+6.1f%% worse (bound %.0f%%, spread %.1f%% / %.1f%%)  %s\n",
				def.Name, sa.Median, sb.Median, def.Unit, 100*worse, 100*def.Bound, 100*spread(sa.Values), 100*spread(sb.Values), v)
		}
	}
	return anyRegressed, nil
}
