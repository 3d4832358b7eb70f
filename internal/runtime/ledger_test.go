package runtime

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"janus/internal/core"
	"janus/internal/policy"
	"janus/internal/topo"
	"janus/internal/workload"
)

// TestEventLedger holds the event loop to a per-event ledger: two seeded
// streams run at one solver worker through a journaled runtime, and each
// event writes one line naming the event and record kinds, whether a delta
// or a full solve produced the journaled result (with the delta's affected
// and frozen counts), the satisfied count, branch-and-bound nodes, LP
// pivots and the first 12 hex digits of the record's SHA-256. The lines
// must equal testdata/event-ledger.golden; a change that means to move
// them reruns with UPDATE_GOLDEN=1 and says which lines moved and why.
func TestEventLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var got bytes.Buffer

	// TestResolveReplay's fault-free trace.
	conf, sw := chaosSetupCfg(t, core.Config{Workers: 1})
	const seed, events = 101, 60
	rng := rand.New(rand.NewSource(seed))
	runLedger(t, &got, "resolve-replay", conf, events, func(i int, rt *Runtime) Event {
		return deltaDiffEvent(rng, sw, i, events, rt.Hour())
	})

	// Every event kind on a fig11 Ans instance.
	w, err := workload.Generate("Ans", workload.Spec{Policies: 50, EndpointsPerPolicy: 2, TimePeriods: 4, StatefulEdges: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	conf, err = core.New(w.Topo, w.Graph, core.Config{CandidatePaths: 5, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen := newLedgerGen(1, w.Topo, w.Spec)
	runLedger(t, &got, "ans", conf, 120, func(int, *Runtime) Event { return gen.next() })

	path := filepath.Join("testdata", "event-ledger.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d ledger lines, golden has %d (rerun with UPDATE_GOLDEN=1 if intended)", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("ledger moved (rerun with UPDATE_GOLDEN=1 if intended)\n got: %s\nwant: %s", gotLines[i], wantLines[i])
		}
	}
}

// runLedger starts a journaled runtime on conf, applies n events drawn by
// next and writes one ledger line per journal record (the initial
// configuration first) under a header naming the stream. An event that
// fails without changing anything journals nothing and gets a line saying
// so.
func runLedger(t *testing.T, out *bytes.Buffer, name string, conf *core.Configurator, n int, next func(int, *Runtime) Event) {
	t.Helper()
	ctx := context.Background()
	j := &roundTripJournal{}
	rt, err := NewDurable(ctx, conf, j)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetRetryPolicy(noSleepPolicy())
	fmt.Fprintf(out, "# %s\n", name)
	writeLedgerLine(t, out, 0, "configure", j)
	for i := 0; i < n; i++ {
		ev := next(i, rt)
		before := len(j.recs)
		_ = rt.Apply(ctx, ev) // a failed event is a rollback record, or none
		if len(j.recs) == before {
			fmt.Fprintf(out, "%d %s none\n", i+1, ev.Kind)
			continue
		}
		writeLedgerLine(t, out, i+1, ev.Kind, j)
	}
}

func writeLedgerLine(t *testing.T, out *bytes.Buffer, i int, kind string, j *roundTripJournal) {
	t.Helper()
	rec := j.recs[len(j.recs)-1]
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	res := rec.Result
	solve := "full"
	if res.Delta != nil {
		solve = fmt.Sprintf("delta a=%d f=%d", res.Delta.Affected, res.Delta.Frozen)
	}
	fmt.Fprintf(out, "%d %s %s %s sat=%d nodes=%d pivots=%d %x\n", i, kind, rec.Kind, solve,
		res.SatisfiedCount(), res.Stats.Nodes, res.Stats.LPIterations, sum[:6])
}

// ledgerGen draws a seeded stream of every event kind against a generated
// workload, keeping its own view of the instance so that every event is
// valid whatever the runtime made of the ones before. Moves and relabels
// come in pairs: one endpoint at a time roams to a random switch, or one
// source joins another policy's group, and the next event of that kind
// sends it home. Counters bump a source's flow to its current policy's
// destination, hour ticks step to the next period's start, and link events
// alternate: a random switch-to-switch link fails, the next one restores
// it. Left to wander, placements and groups would drift into instances
// whose full solves run to the node limit.
type ledgerGen struct {
	rng        *rand.Rand
	endpoints  []topo.Endpoint
	switches   []topo.NodeID
	sources    []string
	group      map[string]int
	policies   int
	periods    int
	period     int
	roamer     string
	roamerHome topo.NodeID
	away       string
	home       int
	links      []topo.Link
	down       *topo.Link
}

func newLedgerGen(seed int64, tp *topo.Topology, spec workload.Spec) *ledgerGen {
	g := &ledgerGen{
		rng:       rand.New(rand.NewSource(seed)),
		endpoints: append([]topo.Endpoint(nil), tp.Endpoints...),
		switches:  tp.NodesOfKind(topo.Switch, ""),
		group:     map[string]int{},
		policies:  spec.Policies,
		periods:   spec.TimePeriods,
	}
	for i := 0; i < spec.Policies; i++ {
		for e := 0; e < spec.EndpointsPerPolicy; e++ {
			src := fmt.Sprintf("p%d-e%d", i, e)
			g.sources = append(g.sources, src)
			g.group[src] = i
		}
	}
	for _, l := range tp.Links {
		if l.From < l.To && tp.Nodes[l.From].Kind == topo.Switch && tp.Nodes[l.To].Kind == topo.Switch {
			g.links = append(g.links, l)
		}
	}
	return g
}

func (g *ledgerGen) next() Event {
	switch roll := g.rng.Intn(20); {
	case roll < 7:
		return g.move()
	case roll < 9:
		return g.relabel()
	case roll < 16:
		src := g.sources[g.rng.Intn(len(g.sources))]
		return Event{Kind: EventCounter, Src: src, Dst: fmt.Sprintf("p%d-dst", g.group[src]),
			Event: policy.FailedConnections, Delta: 1 + g.rng.Intn(3)}
	case roll < 18:
		g.period = (g.period + 1) % g.periods
		return Event{Kind: EventHour, Hour: g.period * policy.HoursPerDay / g.periods}
	}
	if l := g.down; l != nil {
		g.down = nil
		return Event{Kind: EventLinkRestore, From: l.From, To: l.To}
	}
	g.down = &g.links[g.rng.Intn(len(g.links))]
	return Event{Kind: EventLinkFail, From: g.down.From, To: g.down.To}
}

func (g *ledgerGen) move() Event {
	name, to := g.roamer, g.roamerHome
	if name == "" {
		ep := g.endpoints[g.rng.Intn(len(g.endpoints))]
		name, to = ep.Name, g.switches[g.rng.Intn(len(g.switches))]
		g.roamer, g.roamerHome = name, ep.Attach
	} else {
		g.roamer = ""
	}
	return Event{Kind: EventMove, Endpoint: name, To: to}
}

func (g *ledgerGen) relabel() Event {
	src, to := g.away, g.home
	if src == "" {
		src = g.sources[g.rng.Intn(len(g.sources))]
		g.home = g.group[src]
		to = (g.home + 1 + g.rng.Intn(g.policies-1)) % g.policies
		g.away = src
	} else {
		g.away = ""
	}
	g.group[src] = to
	return Event{Kind: EventRelabel, Endpoint: src, Labels: []string{fmt.Sprintf("G%d-src", to)}}
}
