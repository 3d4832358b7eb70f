package runtime

import (
	"context"
	"encoding/json"
	"testing"

	"janus/internal/core"
	"janus/internal/topo"
	"janus/internal/workload"
)

// TestLinkEventsKeepPathPoolsFresh fails a link, and then quarantines a
// switch, on a runtime over the fig11 Ans instance, swaps in the same
// graph while they are down, so a new configurator enumerates its pools,
// and the product distances it prunes with, on the damaged topology, and
// restores the links. Then three endpoints in turn move away and home
// again, across a link failure and its restore. After each step, a full
// configure on the runtime's configurator must equal one on a fresh
// configurator of the same topology. Both draw 20 candidates per pair,
// whose pool of 80 holds every path of every Ans pair, so every pool path
// is a model variable: a distance table kept past a link restore would
// cut paths that use the restored link, and the model would shrink; an
// entry kept past the failure of a link it crosses, or evicted while its
// endpoint was away and enumerated again wrongly, would change the model.
func TestLinkEventsKeepPathPoolsFresh(t *testing.T) {
	w, err := workload.Generate("Ans", workload.Spec{Policies: 50, EndpointsPerPolicy: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{CandidatePaths: 20, Seed: 1, Workers: 1}
	conf, err := core.New(w.Topo, w.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rt := start(t, conf, nil)
	tp := w.Topo
	var hub topo.NodeID // the busiest switch
	for _, n := range tp.NodesOfKind(topo.Switch, "") {
		if len(tp.Neighbors(n)) > len(tp.Neighbors(hub)) {
			hub = n
		}
	}
	nbs := tp.Neighbors(hub)
	configured := func(c *core.Configurator) string {
		t.Helper()
		res, err := c.Configure(0)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal([]any{res.Stats.Variables, res.Stats.Constraints, res.Assignments, res.Configured, res.Objective})
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	assertFresh := func(what string) {
		t.Helper()
		c, err := core.New(tp, w.Graph, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if configured(rt.conf) != configured(c) {
			t.Fatalf("after %s, the runtime's pools differ from a fresh configurator's", what)
		}
	}

	if err := rt.FailLink(ctx, hub, nbs[0]); err != nil {
		t.Fatal(err)
	}
	if err := rt.UpdateGraph(ctx, w.Graph, cfg); err != nil {
		t.Fatal(err)
	}
	if err := rt.RestoreLink(ctx, hub, nbs[0]); err != nil {
		t.Fatal(err)
	}
	assertFresh("failing a link and restoring it")

	if err := rt.reconfigureEvent(ctx, rt.quarantine(hub)); err != nil {
		t.Fatal(err)
	}
	if err := rt.UpdateGraph(ctx, w.Graph, cfg); err != nil {
		t.Fatal(err)
	}
	for _, nb := range nbs {
		if err := rt.RestoreLink(ctx, hub, nb); err != nil {
			t.Fatal(err)
		}
	}
	assertFresh("quarantining a switch and restoring its links")

	// Roam: an endpoint moves away, so the next model build drops its home
	// triples, and comes home across a link failure and a restore, so they
	// are enumerated again on a topology other than the one they left.
	for i, ep := range tp.Endpoints[:3] {
		home, away := ep.Attach, tp.Endpoints[len(tp.Endpoints)-1-i].Attach
		if away == home {
			t.Fatalf("setup: %s would move to its own switch", ep.Name)
		}
		a, b := hub, nbs[i%len(nbs)]
		for _, step := range []struct {
			what string
			do   func() error
		}{
			{"moving " + ep.Name + " away", func() error { return rt.MoveEndpoint(ctx, ep.Name, away) }},
			{"failing a link while it is away", func() error { return rt.FailLink(ctx, a, b) }},
			{"moving it home over the failed link", func() error { return rt.MoveEndpoint(ctx, ep.Name, home) }},
			{"moving it away again", func() error { return rt.MoveEndpoint(ctx, ep.Name, away) }},
			{"restoring the link while it is away", func() error { return rt.RestoreLink(ctx, a, b) }},
			{"moving it home over the restored link", func() error { return rt.MoveEndpoint(ctx, ep.Name, home) }},
		} {
			if err := step.do(); err != nil {
				t.Fatalf("%s: %v", step.what, err)
			}
			assertFresh(step.what)
		}
	}
}
