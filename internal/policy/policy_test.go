package policy

import (
	"testing"

	"janus/internal/labels"
)

func TestNewEPGDefaultsLabelToName(t *testing.T) {
	e := NewEPG("Marketing")
	if len(e.Labels) != 1 || e.Labels[0] != "Marketing" {
		t.Errorf("NewEPG labels = %v, want [Marketing]", e.Labels)
	}
}

func TestEPGKeyIsOrderIndependent(t *testing.T) {
	a := NewEPG("A", "Nml", "Mktg")
	b := NewEPG("B", "Mktg", "Nml")
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	if a.Key() != "Mktg&Nml" {
		t.Errorf("key = %q, want Mktg&Nml", a.Key())
	}
}

func TestEPGLabelNormalizationDropsDupsAndEmpties(t *testing.T) {
	e := NewEPG("A", "x", "", "x", "y")
	if len(e.Labels) != 2 {
		t.Errorf("labels = %v, want 2 unique", e.Labels)
	}
}

func TestClassifierMatches(t *testing.T) {
	web := Classifier{Proto: TCP, Ports: []int{80, 443}}
	if !web.Matches(TCP, 80) || !web.Matches(TCP, 443) {
		t.Error("tcp/80,443 should match tcp 80 and 443")
	}
	if web.Matches(TCP, 22) {
		t.Error("tcp/80,443 should not match tcp/22")
	}
	if web.Matches(UDP, 80) {
		t.Error("tcp classifier should not match udp")
	}
	all := Classifier{}
	if !all.Matches(UDP, 53) || !all.MatchAll() {
		t.Error("zero classifier should match everything")
	}
}

func TestClassifierIntersect(t *testing.T) {
	a := Classifier{Proto: TCP, Ports: []int{80, 443}}
	b := Classifier{Proto: TCP, Ports: []int{443, 8443}}
	got, ok := a.Intersect(b)
	if !ok || len(got.Ports) != 1 || got.Ports[0] != 443 || got.Proto != TCP {
		t.Errorf("Intersect = %v, %v; want tcp/443", got, ok)
	}
	if _, ok := a.Intersect(Classifier{Proto: UDP}); ok {
		t.Error("tcp ∩ udp should be empty")
	}
	if _, ok := a.Intersect(Classifier{Proto: TCP, Ports: []int{22}}); ok {
		t.Error("disjoint ports should be empty")
	}
	got, ok = a.Intersect(Classifier{})
	if !ok || got.String() != a.String() {
		t.Errorf("a ∩ * = %v, want %v", got, a)
	}
}

func TestClassifierString(t *testing.T) {
	if got := (Classifier{Proto: TCP, Ports: []int{80}}).String(); got != "tcp/80" {
		t.Errorf("String = %q, want tcp/80", got)
	}
	if got := (Classifier{}).String(); got != "*" {
		t.Errorf("zero String = %q, want *", got)
	}
}

func TestChainConcatDeduplicates(t *testing.T) {
	a := Chain{Firewall, LightIDS}
	b := Chain{LoadBalance, Firewall}
	got := a.Concat(b)
	want := Chain{Firewall, LightIDS, LoadBalance}
	if !got.Equal(want) {
		t.Errorf("Concat = %v, want %v", got, want)
	}
	if !a.Equal(Chain{Firewall, LightIDS}) {
		t.Error("Concat must not mutate its receiver")
	}
}

func TestQoSResolution(t *testing.T) {
	scheme := labels.Default()
	q := QoS{MinBandwidth: "medium"}
	bw, err := q.MinBandwidthMbps(scheme)
	if err != nil || bw != 100 {
		t.Errorf("MinBandwidthMbps = %v, %v; want 100", bw, err)
	}
	q = QoS{BandwidthMbps: 42, MinBandwidth: "high"}
	bw, err = q.MinBandwidthMbps(scheme)
	if err != nil || bw != 42 {
		t.Errorf("explicit bandwidth should win: got %v, %v", bw, err)
	}
	bw, err = (QoS{}).MinBandwidthMbps(scheme)
	if err != nil || bw != 0 {
		t.Errorf("unset bandwidth = %v, %v; want 0", bw, err)
	}
	if _, err := (QoS{MinBandwidth: "bogus"}).MinBandwidthMbps(scheme); err == nil {
		t.Error("bogus label should error")
	}
	lvl, ok, err := (QoS{Jitter: "low"}).JitterLevel(scheme)
	if err != nil || !ok || lvl != 0 {
		t.Errorf("JitterLevel(low) = %d,%v,%v; want 0 (highest priority queue)", lvl, ok, err)
	}
	if _, ok, _ := (QoS{}).JitterLevel(scheme); ok {
		t.Error("unset jitter should report ok=false")
	}
	hops, ok, err := (QoS{Latency: "strict"}).HopBudget(scheme)
	if err != nil || !ok || hops != 4 {
		t.Errorf("HopBudget(strict) = %d,%v,%v; want 4", hops, ok, err)
	}
}

func TestGraphValidate(t *testing.T) {
	g := NewGraph("qos")
	g.AddEdge(Edge{Src: "Marketing", Dst: "Web", Match: Classifier{Proto: TCP, Ports: []int{80}},
		Chain: Chain{LoadBalance}, QoS: QoS{BandwidthMbps: 100}})
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph: %v", err)
	}

	bad := NewGraph("")
	if err := bad.Validate(); err == nil {
		t.Error("unnamed graph should fail validation")
	}

	dup := NewGraph("dup")
	dup.AddEPG(NewEPG("A"))
	dup.EPGs = append(dup.EPGs, NewEPG("A"))
	if err := dup.Validate(); err == nil {
		t.Error("duplicate EPG should fail validation")
	}

	loop := NewGraph("loop")
	loop.AddEPG(NewEPG("A"))
	loop.Edges = append(loop.Edges, Edge{Src: "A", Dst: "A"})
	if err := loop.Validate(); err == nil {
		t.Error("self loop should fail validation")
	}

	unknown := NewGraph("unknown")
	unknown.AddEPG(NewEPG("A"))
	unknown.Edges = append(unknown.Edges, Edge{Src: "A", Dst: "B"})
	if err := unknown.Validate(); err == nil {
		t.Error("edge to undeclared EPG should fail validation")
	}

	multi := NewGraph("multi-default")
	multi.AddEdge(Edge{Src: "A", Dst: "B"})
	multi.AddEdge(Edge{Src: "A", Dst: "B"})
	if err := multi.Validate(); err == nil {
		t.Error("two static edges on same pair should fail (two defaults)")
	}

	badWin := NewGraph("bad-window")
	badWin.AddEdge(Edge{Src: "A", Dst: "B", Cond: Condition{Window: TimeWindow{Start: 30, End: 2}}})
	if err := badWin.Validate(); err == nil {
		t.Error("window start 30 should fail validation")
	}
}

func TestGraphAddEdgeImplicitEPGs(t *testing.T) {
	g := NewGraph("g")
	g.AddEdge(Edge{Src: "X", Dst: "Y"})
	if _, ok := g.EPGByName("X"); !ok {
		t.Error("AddEdge should declare src EPG implicitly")
	}
	if _, ok := g.EPGByName("Y"); !ok {
		t.Error("AddEdge should declare dst EPG implicitly")
	}
}

func TestEffectiveWeight(t *testing.T) {
	g := NewGraph("g")
	if g.EffectiveWeight() != 1 {
		t.Error("zero weight should default to 1")
	}
	g.Weight = 8
	if g.EffectiveWeight() != 8 {
		t.Error("explicit weight should be returned")
	}
}

func TestEdgeString(t *testing.T) {
	e := Edge{
		Src: "Marketing", Dst: "Web",
		Match: Classifier{Proto: TCP, Ports: []int{80}},
		Chain: Chain{LoadBalance},
		QoS:   QoS{BandwidthMbps: 100},
	}
	got := e.String()
	want := "Marketing -> Web [tcp/80] via LB {min b/w: 100 Mbps}"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
