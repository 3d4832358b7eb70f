package runtime

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"janus/internal/compose"
	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/topo"
)

// chaosSetup builds a redundant five-switch fabric carrying one stateful
// policy (Clients→Web, H-IDS escalation) and one temporal policy
// (Clients→DB, FW by day / byte-counter by night), so the soak exercises
// mobility, temporal, and stateful dynamics at once.
func chaosSetup(t *testing.T) (*core.Configurator, map[string]topo.NodeID) {
	return chaosSetupCfg(t, core.Config{})
}

// chaosSetupCfg is chaosSetup with an explicit solver config (the delta
// differential harness builds delta-on and delta-off twins of the fabric).
func chaosSetupCfg(t *testing.T, cfg core.Config) (*core.Configurator, map[string]topo.NodeID) {
	t.Helper()
	tp := topo.NewTopology("chaos")
	sw := map[string]topo.NodeID{}
	for _, name := range []string{"e1", "e2", "agg", "core1", "core2"} {
		sw[name] = tp.AddSwitch(name)
	}
	fw := tp.AddNF("fw", policy.Firewall)
	bc := tp.AddNF("bc", policy.ByteCounter)
	hids := tp.AddNF("hids", policy.HeavyIDS)
	link := func(x, y topo.NodeID) {
		t.Helper()
		if err := tp.AddLink(x, y, 1000); err != nil {
			t.Fatal(err)
		}
	}
	link(sw["e1"], sw["agg"])
	link(sw["e2"], sw["agg"])
	link(sw["e1"], sw["core1"])
	link(sw["e2"], sw["core2"])
	link(sw["agg"], sw["core1"])
	link(sw["agg"], sw["core2"])
	link(sw["core1"], sw["core2"])
	link(sw["core1"], fw)
	link(fw, sw["core2"])
	link(sw["agg"], bc)
	link(bc, sw["core1"])
	link(sw["agg"], hids)
	link(hids, sw["core2"])
	for _, ep := range []struct{ name, at, label string }{
		{"c1", "e1", "Clients"},
		{"c2", "e2", "Clients"},
		{"web", "core2", "Web"},
		{"db", "core1", "DB"},
	} {
		if err := tp.AddEndpoint(ep.name, sw[ep.at], ep.label); err != nil {
			t.Fatal(err)
		}
	}
	g1 := policy.NewGraph("web")
	g1.AddEdge(policy.Edge{Src: "Clients", Dst: "Web", Default: true,
		QoS: policy.QoS{BandwidthMbps: 10}})
	g1.AddEdge(policy.Edge{Src: "Clients", Dst: "Web",
		Chain: policy.Chain{policy.HeavyIDS},
		QoS:   policy.QoS{BandwidthMbps: 10},
		Cond:  policy.Condition{Stateful: policy.WhenAtLeast(policy.FailedConnections, 5)}})
	g2 := policy.NewGraph("db")
	g2.AddEdge(policy.Edge{Src: "Clients", Dst: "DB",
		Chain: policy.Chain{policy.ByteCounter},
		QoS:   policy.QoS{BandwidthMbps: 5},
		Cond:  policy.Condition{Window: policy.TimeWindow{Start: 18, End: 9}}})
	g2.AddEdge(policy.Edge{Src: "Clients", Dst: "DB",
		Chain: policy.Chain{policy.Firewall},
		QoS:   policy.QoS{BandwidthMbps: 5},
		Cond:  policy.Condition{Window: policy.TimeWindow{Start: 9, End: 18}}})
	cg, err := compose.New(nil).Compose(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	conf, err := core.New(tp, cg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return conf, sw
}

// TestChaosSoak replays a seeded randomized fault schedule — ≥5% op
// failure on every switch, one mid-update switch crash, one link flap —
// over mobility, temporal, and stateful dynamics, and asserts the
// robustness invariants: the self-audit is clean after every successful
// install (no blackholes, no silently dropped chains), hard-failed events
// leave the rule set bit-for-bit untouched, and every reconfiguration
// records its serving tier.
func TestChaosSoak(t *testing.T) {
	conf, sw := chaosSetup(t)
	rt, err := New(context.Background(), conf)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetRetryPolicy(noSleepPolicy())
	rt.Network().InjectFaults(dataplane.FaultPlan{
		Seed:          11,
		Default:       dataplane.SwitchFaults{FailRate: 0.06},
		CrashAfterOps: map[topo.NodeID]int{sw["agg"]: 20},
	})

	rng := rand.New(rand.NewSource(42))
	switches := []topo.NodeID{sw["e1"], sw["e2"], sw["agg"], sw["core1"], sw["core2"]}
	clients := []string{"c1", "c2"}
	targets := []string{"web", "db"}
	ctx := context.Background()

	const events = 48
	successes, failures := 0, 0
	flapFailed, flapRestored := false, false
	for i := 0; i < events; i++ {
		before := snapshotRules(rt.Network())
		mBefore := rt.Metrics()
		hourBefore := rt.Hour()
		var evErr error
		kind := ""
		switch {
		case i == 12:
			kind = "linkfail"
			evErr = rt.FailLink(ctx, sw["core1"], sw["core2"])
			flapFailed = evErr == nil
		case i == 30:
			kind = "linkrestore"
			if flapFailed {
				evErr = rt.RestoreLink(ctx, sw["core1"], sw["core2"])
				flapRestored = evErr == nil
			}
		default:
			switch roll := rng.Intn(10); {
			case roll < 4:
				kind = "move"
				evErr = rt.MoveEndpoint(ctx, clients[rng.Intn(len(clients))],
					switches[rng.Intn(len(switches))])
			case roll < 7:
				kind = "hour"
				evErr = rt.AdvanceTo(ctx, (rt.Hour()+1+rng.Intn(5))%policy.HoursPerDay)
			default:
				kind = "counter"
				evErr = rt.ReportEvent(ctx, clients[rng.Intn(len(clients))],
					targets[rng.Intn(len(targets))], policy.FailedConnections, 1+rng.Intn(3))
			}
		}
		if evErr == nil {
			successes++
			// Zero audit violations after every successful install.
			if vs := rt.Audit(); len(vs) != 0 {
				t.Fatalf("event %d (%s): audit violations after success: %v", i, kind, vs)
			}
			continue
		}
		failures++
		// A hard failure with no partial progress (no quarantine fired, no
		// temporal boundary crossed) must leave the rule set untouched.
		m := rt.Metrics()
		if m.QuarantinedSwitches == mBefore.QuarantinedSwitches && rt.Hour() == hourBefore {
			if !reflect.DeepEqual(before, snapshotRules(rt.Network())) {
				t.Fatalf("event %d (%s): failed event mutated the rule set: %v", i, kind, evErr)
			}
		}
	}

	if successes < events/2 {
		t.Errorf("only %d/%d events succeeded; soak barely exercised the runtime", successes, events)
	}
	if !flapFailed || !flapRestored {
		t.Errorf("link flap incomplete: failed=%v restored=%v", flapFailed, flapRestored)
	}
	stats := rt.Network().FaultStats()
	if stats.OpsAttempted < 100 {
		t.Errorf("OpsAttempted = %d, soak too small", stats.OpsAttempted)
	}
	if stats.OpsFailed == 0 {
		t.Error("fault injection never fired")
	}
	if stats.Crashes < 1 {
		t.Errorf("Crashes = %d, want the scheduled mid-update crash to trip", stats.Crashes)
	}
	m := rt.Metrics()
	if len(m.TierHistory) != min(tierHistoryLen, m.Reconfigurations) {
		t.Errorf("TierHistory has %d entries for %d reconfigurations (window %d)", len(m.TierHistory), m.Reconfigurations, tierHistoryLen)
	}
	if m.ApplyRetries == 0 {
		t.Error("no retries recorded despite 6%% op failure")
	}
	t.Logf("soak: %d ok / %d failed events; ops=%d failed=%d crashes=%d retries=%d rollbacks=%d quarantined=%d tiers=%v",
		successes, failures, stats.OpsAttempted, stats.OpsFailed, stats.Crashes,
		m.ApplyRetries, m.ApplyRollbacks, m.QuarantinedSwitches, m.TierCounts)
}
