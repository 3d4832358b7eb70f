// Package policy implements the extended Policy Graph Abstraction (PGA)
// model of the Janus paper (§4): endpoint groups, classifiers, network
// function service chains, QoS requirements expressed as logical labels,
// and dynamic (stateful and temporal) conditions attached to policy edges.
//
// A PolicyGraph is the unit a policy writer submits; the compose package
// merges graphs from multiple writers into one composed graph, and the core
// package configures the composed graph onto a topology.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"janus/internal/labels"
)

// EPG is an endpoint group: the nodes of a policy graph (§1, §4). An EPG is
// identified by the set of labels its members carry; e.g. {Nml, Mktg} is the
// group of endpoints labelled both Nml and Mktg (Fig 3). All policies are
// specified at EPG granularity and must be enforced for all members or none
// (group atomicity).
type EPG struct {
	// Name is a human-readable identifier, unique within a graph.
	Name string `json:"name"`
	// Labels is the label set defining group membership. Two EPGs from
	// different input graphs overlap iff their label sets intersect the
	// same endpoints; composition intersects label sets.
	Labels []string `json:"labels"`
}

// NewEPG returns an EPG with the given name whose membership labels default
// to the name itself when none are provided.
func NewEPG(name string, epgLabels ...string) EPG {
	if len(epgLabels) == 0 {
		epgLabels = []string{name}
	}
	return EPG{Name: name, Labels: normalizeLabels(epgLabels)}
}

// Contains reports whether an endpoint carrying epLabels is a member of
// the group: every label of the EPG is among them. Label sets are a
// handful of entries, so two loops beat building a set, and membership is
// tested per endpoint and policy in every model build, dependency index
// and audit.
//
//janus:hotpath
func (g EPG) Contains(epLabels []string) bool {
	for _, want := range g.Labels {
		found := false
		for _, have := range epLabels {
			if have == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Key returns a canonical identity for the EPG's label set, independent of
// label order. Two EPGs with equal keys denote the same group of endpoints.
func (g EPG) Key() string {
	return strings.Join(normalizeLabels(g.Labels), "&")
}

func normalizeLabels(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := make([]string, 0, len(in))
	for _, l := range in {
		if l == "" || seen[l] {
			continue
		}
		seen[l] = true
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Protocol is a transport protocol in a classifier.
type Protocol string

// Supported classifier protocols.
const (
	TCP Protocol = "tcp"
	UDP Protocol = "udp"
	Any Protocol = "any"
)

// Classifier matches the traffic a policy edge applies to, e.g. tcp/80
// (Fig 1a). The zero Classifier matches all traffic.
type Classifier struct {
	Proto Protocol `json:"proto,omitempty"`
	// Ports lists destination ports; empty means all ports.
	Ports []int `json:"ports,omitempty"`
}

// MatchAll reports whether the classifier matches all traffic.
func (c Classifier) MatchAll() bool {
	return (c.Proto == "" || c.Proto == Any) && len(c.Ports) == 0
}

// Matches reports whether traffic with the given protocol and destination
// port is selected by the classifier.
func (c Classifier) Matches(proto Protocol, port int) bool {
	if c.Proto != "" && c.Proto != Any && c.Proto != proto {
		return false
	}
	if len(c.Ports) == 0 {
		return true
	}
	for _, p := range c.Ports {
		if p == port {
			return true
		}
	}
	return false
}

// Intersect returns the classifier matching exactly the traffic matched by
// both c and o, and ok=false if that intersection is empty.
func (c Classifier) Intersect(o Classifier) (Classifier, bool) {
	out := Classifier{}
	switch {
	case c.Proto == "" || c.Proto == Any:
		out.Proto = o.Proto
	case o.Proto == "" || o.Proto == Any:
		out.Proto = c.Proto
	case c.Proto == o.Proto:
		out.Proto = c.Proto
	default:
		return Classifier{}, false
	}
	switch {
	case len(c.Ports) == 0:
		out.Ports = append([]int(nil), o.Ports...)
	case len(o.Ports) == 0:
		out.Ports = append([]int(nil), c.Ports...)
	default:
		set := make(map[int]bool, len(c.Ports))
		for _, p := range c.Ports {
			set[p] = true
		}
		for _, p := range o.Ports {
			if set[p] {
				out.Ports = append(out.Ports, p)
			}
		}
		if len(out.Ports) == 0 {
			return Classifier{}, false
		}
		sort.Ints(out.Ports)
	}
	return out, true
}

// Compare orders classifiers canonically, most-specific first: a concrete
// protocol sorts before the wildcard ("" or Any), an explicit port list
// before the all-ports list, and a shorter (tighter) port list before a
// longer one; residual ties fall back to lexicographic protocol then
// element-wise port order. It returns -1, 0, or +1 and never allocates, so
// the dataplane's matcher can use it on the lookup hot path to break
// priority ties deterministically.
func (c Classifier) Compare(o Classifier) int {
	cw := c.Proto == "" || c.Proto == Any
	ow := o.Proto == "" || o.Proto == Any
	switch {
	case cw && !ow:
		return 1
	case !cw && ow:
		return -1
	}
	switch {
	case len(c.Ports) == 0 && len(o.Ports) > 0:
		return 1
	case len(c.Ports) > 0 && len(o.Ports) == 0:
		return -1
	case len(c.Ports) != len(o.Ports):
		if len(c.Ports) < len(o.Ports) {
			return -1
		}
		return 1
	}
	if c.Proto != o.Proto {
		if c.Proto < o.Proto {
			return -1
		}
		return 1
	}
	for i := range c.Ports {
		if c.Ports[i] != o.Ports[i] {
			if c.Ports[i] < o.Ports[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// String renders the classifier in the paper's tcp/80 style.
func (c Classifier) String() string {
	if c.MatchAll() {
		return "*"
	}
	proto := string(c.Proto)
	if proto == "" {
		proto = "any"
	}
	if len(c.Ports) == 0 {
		return proto
	}
	parts := make([]string, len(c.Ports))
	for i, p := range c.Ports {
		parts[i] = fmt.Sprintf("%s/%d", proto, p)
	}
	return strings.Join(parts, ",")
}

// NFKind names a network-function middlebox type (FW, LB, L-IDS, …).
type NFKind string

// Middlebox kinds used throughout the paper's examples.
const (
	Firewall    NFKind = "FW"
	StatefulFW  NFKind = "SFW"
	LoadBalance NFKind = "LB"
	LightIDS    NFKind = "L-IDS"
	HeavyIDS    NFKind = "H-IDS"
	ByteCounter NFKind = "BC"
	DPI         NFKind = "DPI"
)

// Chain is an ordered network-function service chain (waypoint constraint):
// traffic on the edge must traverse these NF kinds in order (§5.1).
type Chain []NFKind

// String renders the chain as FW->LB.
func (ch Chain) String() string {
	if len(ch) == 0 {
		return "-"
	}
	parts := make([]string, len(ch))
	for i, k := range ch {
		parts[i] = string(k)
	}
	return strings.Join(parts, "->")
}

// Equal reports element-wise equality.
func (ch Chain) Equal(o Chain) bool {
	if len(ch) != len(o) {
		return false
	}
	for i := range ch {
		if ch[i] != o[i] {
			return false
		}
	}
	return true
}

// Concat returns ch followed by o. Composition of two edges requiring
// different chains must traverse both writers' middleboxes (Fig 8, Fig 10b
// compose FW and LB into FW->LB).
func (ch Chain) Concat(o Chain) Chain {
	out := make(Chain, 0, len(ch)+len(o))
	out = append(out, ch...)
	// Skip kinds already required by ch: requiring FW twice is redundant at
	// the intent level.
	have := make(map[NFKind]bool, len(ch))
	for _, k := range ch {
		have[k] = true
	}
	for _, k := range o {
		if !have[k] {
			out = append(out, k)
			have[k] = true
		}
	}
	return out
}

// QoS is the set of label-graded QoS requirements on a policy edge (§4.1).
// Zero-valued fields mean "unspecified". Concrete values are resolved
// against a labels.Scheme at configuration time; BandwidthMbps, when
// non-zero, overrides the MinBandwidth label with an explicit value (the
// paper allows either form: "using logical labels or the actual desired
// value of the metric").
type QoS struct {
	MinBandwidth labels.Label `json:"minBandwidth,omitempty"`
	MaxBandwidth labels.Label `json:"maxBandwidth,omitempty"`
	Latency      labels.Label `json:"latency,omitempty"`
	Jitter       labels.Label `json:"jitter,omitempty"`
	// BandwidthMbps is an explicit minimum-bandwidth requirement in Mbps.
	BandwidthMbps float64 `json:"bandwidthMbps,omitempty"`
}

// IsZero reports whether no QoS requirement is set.
func (q QoS) IsZero() bool {
	return q == QoS{}
}

// MinBandwidthMbps resolves the edge's minimum-bandwidth requirement in
// Mbps under the scheme: the explicit value if set, else the label value,
// else 0 (no bandwidth requirement).
func (q QoS) MinBandwidthMbps(scheme *labels.Scheme) (float64, error) {
	if q.BandwidthMbps > 0 {
		return q.BandwidthMbps, nil
	}
	if q.MinBandwidth == "" {
		return 0, nil
	}
	v, err := scheme.Value(labels.MinBandwidth, q.MinBandwidth)
	if err != nil {
		return 0, fmt.Errorf("resolving min bandwidth: %w", err)
	}
	return v, nil
}

// JitterLevel resolves the jitter label to a priority-queue level (Eqn 10);
// ok=false when no jitter requirement is set.
func (q QoS) JitterLevel(scheme *labels.Scheme) (int, bool, error) {
	if q.Jitter == "" {
		return 0, false, nil
	}
	v, err := scheme.Value(labels.Jitter, q.Jitter)
	if err != nil {
		return 0, false, fmt.Errorf("resolving jitter: %w", err)
	}
	return int(v), true, nil
}

// HopBudget resolves the latency label to a maximum hop count (§5.7 uses
// hops as the latency proxy); ok=false when no latency requirement is set.
func (q QoS) HopBudget(scheme *labels.Scheme) (int, bool, error) {
	if q.Latency == "" {
		return 0, false, nil
	}
	v, err := scheme.Value(labels.Latency, q.Latency)
	if err != nil {
		return 0, false, fmt.Errorf("resolving latency: %w", err)
	}
	return int(v), true, nil
}

// String renders the QoS in the paper's "min b/w: high" style.
func (q QoS) String() string {
	var parts []string
	if q.BandwidthMbps > 0 {
		parts = append(parts, fmt.Sprintf("min b/w: %g Mbps", q.BandwidthMbps))
	} else if q.MinBandwidth != "" {
		parts = append(parts, fmt.Sprintf("min b/w: %s", q.MinBandwidth))
	}
	if q.MaxBandwidth != "" {
		parts = append(parts, fmt.Sprintf("max b/w: %s", q.MaxBandwidth))
	}
	if q.Latency != "" {
		parts = append(parts, fmt.Sprintf("latency: %s", q.Latency))
	}
	if q.Jitter != "" {
		parts = append(parts, fmt.Sprintf("jitter: %s", q.Jitter))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ", ")
}
