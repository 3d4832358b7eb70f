package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"janus/internal/compose"
	"janus/internal/milp"
	"janus/internal/policy"
	"janus/internal/topo"
)

// ladderSetup builds a two-switch line with one trivially satisfiable
// policy.
func ladderSetup(t *testing.T) *Configurator {
	t.Helper()
	tp := topo.NewTopology("ladder")
	a := tp.AddSwitch("a")
	b := tp.AddSwitch("b")
	if err := tp.AddLink(a, b, 100); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("c1", a, "C"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("s1", b, "S"); err != nil {
		t.Fatal(err)
	}
	g := policy.NewGraph("g")
	g.AddEdge(policy.Edge{Src: "C", Dst: "S", QoS: policy.QoS{BandwidthMbps: 10}})
	cg, err := compose.New(nil).Compose(g)
	if err != nil {
		t.Fatal(err)
	}
	conf, err := New(tp, cg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return conf
}

func TestConfigureTierFull(t *testing.T) {
	conf := ladderSetup(t)
	res, err := conf.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != TierFull && res.Tier != TierIncumbent {
		t.Errorf("trivial solve served at tier %s, want full or incumbent", res.Tier)
	}
	if res.Tier.Degraded() {
		t.Errorf("tier %s should not count as degraded", res.Tier)
	}
}

func TestConfigureContextCancelled(t *testing.T) {
	conf := ladderSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := conf.ConfigureContext(ctx, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled configure should propagate context.Canceled, got %v", err)
	}
}

func TestKeepPreviousServesPriorConfig(t *testing.T) {
	conf := ladderSetup(t)
	prev, err := conf.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(prev.Assignments) == 0 {
		t.Fatal("setup policy should be configured")
	}
	m, err := conf.buildModel(0, prev.Assignments, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := conf.keepPrevious(prev, 5, m, &milp.Solution{Status: milp.Limit, Effort: milp.Effort{Nodes: 3}}, time.Now())
	if res.Tier != TierKeepPrevious {
		t.Errorf("tier = %s, want keep-previous", res.Tier)
	}
	if !res.Tier.Degraded() {
		t.Error("keep-previous must count as degraded")
	}
	if res.Period != 5 {
		t.Errorf("period = %d, want 5", res.Period)
	}
	if res.Status != milp.Limit {
		t.Errorf("status = %s, want limit (the failed solve's)", res.Status)
	}
	if len(res.Assignments) != len(prev.Assignments) {
		t.Fatalf("assignments not kept: %d vs %d", len(res.Assignments), len(prev.Assignments))
	}
	if CountPathChanges(prev, res) != 0 {
		t.Error("keep-previous must cause zero path changes")
	}
	// The copy must be isolated: mutating the served result cannot corrupt
	// the previous one.
	for pid := range res.Configured {
		res.Configured[pid] = false
	}
	if prev.SatisfiedCount() == 0 {
		t.Error("mutating the keep-previous result leaked into prev")
	}
}

func TestDegradationTierStrings(t *testing.T) {
	want := map[DegradationTier]string{
		TierFull:         "full",
		TierIncumbent:    "incumbent",
		TierKeepPrevious: "keep-previous",
		TierNone:         "none",
	}
	for tier, s := range want {
		if tier.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(tier), tier.String(), s)
		}
	}
	// Journaled results carry the tier as an integer.
	if TierKeepPrevious != 3 || TierNone != 4 {
		t.Errorf("keep-previous = %d, none = %d; journaled tiers need 3 and 4", TierKeepPrevious, TierNone)
	}
}
