package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// workloadSpec is how one workload of BENCHMARK.json is driven. The file
// gives the workload's name and the reason it exists; this is the rest.
type workloadSpec struct {
	Name string
	Topo string
	// Workers is core.Config.Workers: 1 pins the serial search, whose
	// delta/fallback decisions repeat exactly for a seed; 0 is janusd's
	// default, GOMAXPROCS workers.
	Workers int
	// Mix is the event mix; nil means graph-churn ops.
	Mix mix
	// Rate is events per second of --seconds, and so sizes a run: a closed
	// loop sends Rate × seconds events however long they take, which keeps
	// the work, and every count the program makes of it, the same on both
	// sides of a comparison. The closed-loop rates are what this host got
	// through when the benchmark was written, so a run lasts about
	// --seconds here.
	Rate float64
	// Open makes the workload an open loop: event i is due i/Rate seconds
	// after the start. It is driven through runtime.Runtime, with a reader
	// beside it.
	Open bool
}

// events is how many events a timed section of the given length holds.
func (w workloadSpec) events(seconds float64) int {
	return int(math.Round(w.Rate * seconds))
}

// At run_seconds 20 every run times a hundred events or more, so the 90th
// percentile has at least ten samples beyond it.
//
// The open loop's rate is a compromise. A full solve on Cwix takes 1.5–2 s
// and the ten or so events due meanwhile queue behind it; the median has to
// stay an event that met an idle writer, and the 90th percentile one that
// did not, each well clear of the cliff between the two. At five events a
// second and three full solves in a hundred events (arrivalsMix) a third
// of the events wait.
var workloads = []workloadSpec{
	{Name: "churn-ans", Topo: "Ans", Workers: 1, Mix: churnAnsMix, Rate: 20},
	{Name: "churn-cwix", Topo: "Cwix", Workers: 1, Mix: churnCwixMix, Rate: 10},
	{Name: "graph-churn", Topo: "Ans", Workers: 0, Rate: 5},
	{Name: "arrivals-cwix", Topo: "Cwix", Workers: 1, Mix: arrivalsMix, Rate: 5, Open: true},
}

// metricDef is one metric as BENCHMARK.json declares it. Bound is the share
// of the baseline median an end-to-end metric may worsen by before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// benchmark is BENCHMARK.json, the one place where the workloads' names and
// reasons and the metrics' names, units, directions and bounds are written
// down. The code computes values by metric name; result refuses a name
// that is declared and not computed, or computed and not declared.
// README.md defines every metric and says where the bounds come from.
type benchmark struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// benchmarkFile is relative to the root of the checkout, where the driver
// and `go run ./bench` both start the benchmark.
const benchmarkFile = "BENCHMARK.json"

func loadBenchmark(path string) (benchmark, error) {
	var b benchmark
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, fmt.Errorf("%w (the benchmark is run from the root of the repository)", err)
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Workloads) != len(workloads) {
		return b, fmt.Errorf("%s declares %d workloads, the benchmark drives %d", path, len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name {
			return b, fmt.Errorf("%s: workload %d is %q, the benchmark drives %q there", path, i, b.Workloads[i].Name, w.Name)
		}
	}
	return b, nil
}
