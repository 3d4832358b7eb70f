// Package labels implements the network-independent logical label system
// Janus uses to express QoS levels in policy intents (§4.1 of the paper).
//
// Policies are written against logical labels ("low", "medium", "high", …)
// rather than concrete values ("50 Mbps"), which keeps intents portable
// across deployments. A per-deployment Scheme orders the labels of each QoS
// metric and maps them to concrete values at configuration time.
package labels

import (
	"fmt"
	"sort"
	"strings"
)

// Label is a logical QoS level name, e.g. "low", "medium", "high".
// Labels are opaque strings; their meaning comes from a Scheme.
type Label string

// Metric identifies a QoS dimension a label can grade.
type Metric string

// The QoS metrics Janus configures. Bandwidth is the primary metric of the
// paper's optimization (§5.2); latency and jitter are configured at the
// label abstraction (§5.7).
const (
	MinBandwidth Metric = "min-bw"  // minimum bandwidth guarantee
	MaxBandwidth Metric = "max-bw"  // maximum allowed bandwidth (rate limit)
	Latency      Metric = "latency" // end-to-end latency bound (hop-count proxy)
	Jitter       Metric = "jitter"  // priority-queue level
)

// Level is a label's rank within a Scheme: higher level = better QoS,
// independent of the metric's value direction.
type Level int

// Scheme is a deployment-specific label system: for each metric it holds an
// ordered list of labels (worst service first) and the concrete value each
// label maps to in the target network. The mapping from network-independent
// label to network-specific value happens at run time (§4.1).
type Scheme struct {
	metrics map[Metric]*metricScale
}

type metricScale struct {
	order  []Label           // ascending service quality
	values map[Label]float64 // concrete value per label
}

// NewScheme returns an empty label scheme.
func NewScheme() *Scheme {
	return &Scheme{metrics: make(map[Metric]*metricScale)}
}

// Default returns the scheme used throughout the paper's examples:
// bandwidth labels low (<100 Mbps), medium (100–500 Mbps), high (>500 Mbps),
// latency labels strict/normal/relaxed, and three jitter priority levels.
// Concrete bandwidth values are in Mbps.
func Default() *Scheme {
	s := NewScheme()
	must := func(err error) {
		if err != nil {
			panic("labels: building default scheme: " + err.Error())
		}
	}
	must(s.Define(MinBandwidth, []Label{"low", "medium", "high"}, []float64{50, 100, 500}))
	must(s.Define(MaxBandwidth, []Label{"low", "medium", "high"}, []float64{50, 100, 500}))
	// Latency labels map to hop budgets (§5.7 uses hop count as a latency
	// proxy); lower hop budget = better service, so the best label has the
	// smallest value.
	must(s.Define(Latency, []Label{"relaxed", "normal", "strict"}, []float64{16, 8, 4}))
	// Jitter labels map to priority-queue levels; queue 0 is the highest
	// priority (lowest jitter).
	must(s.Define(Jitter, []Label{"high", "medium", "low"}, []float64{2, 1, 0}))
	return s
}

// Define installs the ordered labels for a metric. Labels are given worst
// service first, best last, with the concrete value for each. It replaces
// any previous definition of the metric.
func (s *Scheme) Define(m Metric, order []Label, values []float64) error {
	if len(order) == 0 {
		return fmt.Errorf("labels: define %s: empty label order", m)
	}
	if len(order) != len(values) {
		return fmt.Errorf("labels: define %s: %d labels but %d values", m, len(order), len(values))
	}
	scale := &metricScale{
		order:  append([]Label(nil), order...),
		values: make(map[Label]float64, len(order)),
	}
	for i, l := range order {
		if l == "" {
			return fmt.Errorf("labels: define %s: empty label at position %d", m, i)
		}
		if _, dup := scale.values[l]; dup {
			return fmt.Errorf("labels: define %s: duplicate label %q", m, l)
		}
		scale.values[l] = values[i]
	}
	s.metrics[m] = scale
	return nil
}

// Metrics returns the metrics this scheme defines, sorted for determinism.
func (s *Scheme) Metrics() []Metric {
	out := make([]Metric, 0, len(s.metrics))
	for m := range s.metrics {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Labels returns the label order (worst service first) for a metric, or nil
// if the metric is not defined.
func (s *Scheme) Labels(m Metric) []Label {
	scale, ok := s.metrics[m]
	if !ok {
		return nil
	}
	return append([]Label(nil), scale.order...)
}

// LevelOf returns the service level of label l under metric m.
// Level 0 is the worst service; higher is better.
func (s *Scheme) LevelOf(m Metric, l Label) (Level, error) {
	scale, ok := s.metrics[m]
	if !ok {
		return 0, fmt.Errorf("labels: metric %q not defined", m)
	}
	for i, cand := range scale.order {
		if cand == l {
			return Level(i), nil
		}
	}
	return 0, fmt.Errorf("labels: label %q not defined for metric %q (have %s)", l, m, joinLabels(scale.order))
}

// Value resolves label l of metric m to its concrete network-specific value.
func (s *Scheme) Value(m Metric, l Label) (float64, error) {
	scale, ok := s.metrics[m]
	if !ok {
		return 0, fmt.Errorf("labels: metric %q not defined", m)
	}
	v, ok := scale.values[l]
	if !ok {
		return 0, fmt.Errorf("labels: label %q not defined for metric %q (have %s)", l, m, joinLabels(scale.order))
	}
	return v, nil
}

// Better reports whether label a provides strictly better service than
// label b under metric m.
func (s *Scheme) Better(m Metric, a, b Label) (bool, error) {
	la, err := s.LevelOf(m, a)
	if err != nil {
		return false, err
	}
	lb, err := s.LevelOf(m, b)
	if err != nil {
		return false, err
	}
	return la > lb, nil
}

// Max returns whichever of a, b provides better service under metric m.
// This is the composition principle of §4.1: when two policies specify the
// same metric, the composed edge picks the label with better performance.
func (s *Scheme) Max(m Metric, a, b Label) (Label, error) {
	better, err := s.Better(m, a, b)
	if err != nil {
		return "", err
	}
	if better {
		return a, nil
	}
	return b, nil
}

// Compatible reports whether a min-bandwidth label and a max-bandwidth label
// can coexist on one composed edge: the guaranteed minimum must not exceed
// the allowed maximum (§4.1, Fig 8b). Metrics other than the min/max
// bandwidth pair are always compatible at the label layer.
func (s *Scheme) Compatible(minBW, maxBW Label) (bool, error) {
	lo, err := s.Value(MinBandwidth, minBW)
	if err != nil {
		return false, err
	}
	hi, err := s.Value(MaxBandwidth, maxBW)
	if err != nil {
		return false, err
	}
	return lo <= hi, nil
}

func joinLabels(ls []Label) string {
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = string(l)
	}
	return strings.Join(parts, ",")
}
