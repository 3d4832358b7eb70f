// Package experiments regenerates every table and figure of the Janus
// paper's evaluation (§7). Each experiment builds the paper's workload
// shape (policy counts, endpoints per policy, candidate paths, time
// periods, priority classes) on the Zoo-equivalent topologies and reports
// the same rows/series the paper does.
//
// Sizes are scaled to a from-scratch simplex on laptop-class hardware via
// Params.Scale (1.0 = default reduced sizes); the sweep shapes — who wins,
// by roughly what factor, where crossovers fall — follow the paper. See
// EXPERIMENTS.md for paper-vs-measured values.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"janus/internal/core"
	"janus/internal/workload"
)

// Params control experiment sizing.
type Params struct {
	// Scale multiplies policy counts (1.0 = reduced defaults; ~20 gives
	// paper-size sweeps given hours of compute).
	Scale float64
	// Seed drives workload randomness.
	Seed int64
	// Runs averages each measurement over this many seeds (paper: 10).
	Runs int
	// TimeLimit bounds each individual solve (safety net; 0 = 60s).
	TimeLimit time.Duration
}

func (p Params) withDefaults() Params {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Runs <= 0 {
		p.Runs = 1
	}
	if p.TimeLimit <= 0 {
		p.TimeLimit = 15 * time.Second
	}
	return p
}

func (p Params) scaled(n int) int {
	v := int(float64(n)*p.Scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Experiment is one named, runnable experiment.
type Experiment struct {
	Name        string
	Description string
	Run         func(Params) ([]Table, error)
}

// All lists every experiment in paper order.
var All = []Experiment{
	{"fig11", "runtime vs number of policies, ILP vs Janus (Fig 11)", Fig11},
	{"fig12", "runtime vs endpoints per policy, ILP vs Janus (Fig 12)", Fig12},
	{"fig13", "optimality gap vs endpoints per policy (Fig 13)", Fig13},
	{"table3", "candidate paths vs optimality gap (Table 3)", Table3},
	{"table4", "candidate paths vs runtime reduction (Table 4)", Table4},
	{"fig14", "warm start: endpoint changes vs path changes and time (Fig 14)", Fig14},
	{"fig15", "stateful policies: λ sweep of default/non-default coverage (Fig 15)", Fig15},
	{"table5", "temporal greedy vs independent re-solve (Table 5)", Table5},
	{"fig16", "weights as priorities: unconfigured by class (Fig 16)", Fig16},
	{"fig17", "negotiation: extra policies vs N and K (Fig 17)", Fig17},
	{"parbench", "parallel branch & bound: serial vs multi-worker solve times", ParBench},
}

// Find returns the named experiment.
func Find(name string) (Experiment, bool) {
	for _, e := range All {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// measurement is what one (topology, spec, config) solve produced and
// cost: policies satisfied, wall time, branch-and-bound nodes, and heap
// allocations (a MemStats Mallocs delta around Configure — other goroutines
// are quiescent in janusbench, so the delta is attributable to the solve).
type measurement struct {
	satisfied int
	duration  time.Duration
	nodes     int
	allocs    uint64
}

// solveOnce generates the workload and configures period 0.
func solveOnce(topoName string, spec workload.Spec, cfg core.Config, timeLimit time.Duration) (measurement, error) {
	w, err := workload.Generate(topoName, spec)
	if err != nil {
		return measurement{}, err
	}
	cfg.TimeLimit = timeLimit
	conf, err := core.New(w.Topo, w.Graph, cfg)
	if err != nil {
		return measurement{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	res, err := conf.Configure(0)
	if err != nil {
		return measurement{}, err
	}
	dur := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return measurement{
		satisfied: res.SatisfiedCount(),
		duration:  dur,
		nodes:     res.Stats.Nodes,
		allocs:    ms1.Mallocs - ms0.Mallocs,
	}, nil
}

// avg runs f Runs times with varied seeds and averages.
func avg(p Params, f func(seed int64) (measurement, error)) (measurement, error) {
	var total measurement
	for r := 0; r < p.Runs; r++ {
		m, err := f(p.Seed + int64(r)*7919)
		if err != nil {
			return measurement{}, err
		}
		total.satisfied += m.satisfied
		total.duration += m.duration
		total.nodes += m.nodes
		total.allocs += m.allocs
	}
	total.satisfied /= p.Runs
	total.duration /= time.Duration(p.Runs)
	total.nodes /= p.Runs
	total.allocs /= uint64(p.Runs)
	return total, nil
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// newRNG returns a seeded RNG for experiment-local randomness.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
