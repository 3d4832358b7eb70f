package runtime

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"janus/internal/core"
	"janus/internal/topo"
	"janus/internal/workload"
)

// TestLinkEventsKeepPathPoolsFresh fails a link, and then quarantines a
// switch, on a runtime over the fig11 Ans instance, swaps in the same
// graph while they are down, so a new configurator enumerates its pools,
// and the product distances it prunes with, on the damaged topology, and
// restores the links. Once every link is back, a full configure on the
// runtime's configurator must equal one on a fresh configurator of the
// same topology. Both draw 20 candidates per pair, whose pool of 80 holds
// every path of every Ans pair, so every pool path is a model variable: a
// distance table kept past a link restore would cut paths that use the
// restored link, and the model would shrink.
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
	rt, err := New(ctx, conf)
	if err != nil {
		t.Fatal(err)
	}
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

	if err := rt.quarantine(ctx, hub, errors.New("injected")); err != nil {
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
}
