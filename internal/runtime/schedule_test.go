package runtime

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"janus/internal/compose"
	"janus/internal/core"
	"janus/internal/policy"
	"janus/internal/topo"
	"janus/internal/workload"
)

// Schedules and drive. Every runtime soak is one schedule driven over one
// or more sides, with a list of oracles checking each step (DESIGN.md,
// "Schedules and oracles"). A schedule is a seeded source with feedback,
// not a fixed event list: a draw may read the driving runtime's clock or
// whether its last link failure took.

// Step is one step of a schedule: an event, or a swap of the writer
// graphs.
type Step struct {
	Event Event
	// Swap, when set, replaces the runtime's writer graphs instead.
	Swap []*policy.Graph
	// IfDown applies a link restore only on a side whose link failure took;
	// elsewhere the step is skipped and succeeds.
	IfDown bool
}

func (st Step) String() string {
	if st.Swap != nil {
		return fmt.Sprintf("graph swap to %d writers", len(st.Swap))
	}
	return fmt.Sprintf("%+v", st.Event)
}

// Source draws step i of a schedule, reading the feedback of the side that
// drives it.
type Source func(i int, s *Side) Step

// Schedule is a named run of Steps steps; Source returns a freshly seeded
// source, so that every call replays the same draws.
type Schedule struct {
	Name   string
	Steps  int
	Source func() Source
}

// Side is one runtime a schedule drives.
type Side struct {
	Name string
	RT   *Runtime
	Cfg  core.Config // what a graph swap solves with
	Err  error       // the last step's error
	// LinkDown is set by a link failure that took and cleared by a restore
	// that took.
	LinkDown bool
	// Done, if set, ends the run once it reports true (a crashed store).
	Done func() bool
}

func (s *Side) apply(t testing.TB, ctx context.Context, st Step) error {
	switch {
	case st.Swap != nil:
		return s.RT.UpdateGraph(ctx, composeWriters(t, st.Swap...), s.Cfg)
	case st.IfDown && !s.LinkDown:
		return nil
	}
	err := s.RT.Apply(ctx, st.Event)
	if k := st.Event.Kind; err == nil && (k == EventLinkFail || k == EventLinkRestore) {
		s.LinkDown = k == EventLinkFail
	}
	return err
}

// drive runs sched on every side in lockstep. Each step is drawn once, from
// the first side's feedback, and applied to every side, between the
// oracles' Before and After hooks; the End hooks see the finished run.
// Every failure an oracle reports names the schedule, the step index and
// the step.
func drive(t testing.TB, sched Schedule, sides []*Side, oracles ...Oracle) {
	t.Helper()
	ctx := context.Background()
	src := sched.Source()
	for i := 0; i < sched.Steps; i++ {
		st := src(i, sides[0])
		at := stepTB{t, fmt.Sprintf("schedule %s step %d %s: ", sched.Name, i, st)}
		for _, o := range oracles {
			if o.Before != nil {
				o.Before(at, sides)
			}
		}
		done := false
		for _, s := range sides {
			s.Err = s.apply(t, ctx, st)
			done = done || s.Done != nil && s.Done()
		}
		for _, o := range oracles {
			if o.After != nil {
				o.After(at, i, st, sides)
			}
		}
		if done {
			break
		}
	}
	end := stepTB{t, fmt.Sprintf("schedule %s end: ", sched.Name)}
	for _, o := range oracles {
		if o.End != nil {
			o.End(end, sides)
		}
	}
}

// stepTB prefixes every failure with where in a run it happened.
type stepTB struct {
	testing.TB
	at string
}

func (s stepTB) Errorf(format string, args ...any) { s.TB.Helper(); s.TB.Errorf(s.at+format, args...) }
func (s stepTB) Fatalf(format string, args ...any) { s.TB.Helper(); s.TB.Fatalf(s.at+format, args...) }
func (s stepTB) Error(args ...any)                 { s.TB.Helper(); s.TB.Error(s.at + sprintln(args)) }
func (s stepTB) Fatal(args ...any)                 { s.TB.Helper(); s.TB.Fatal(s.at + sprintln(args)) }

// sprintln formats args as testing.T's Error and Fatal do.
func sprintln(args []any) string { return strings.TrimSuffix(fmt.Sprintln(args...), "\n") }

// start boots a runtime on conf, journaled to j unless j is nil, with the
// no-sleep retry policy.
func start(t testing.TB, conf *core.Configurator, j Journal) *Runtime {
	t.Helper()
	var rt *Runtime
	var err error
	if j == nil {
		rt, err = New(context.Background(), conf)
	} else {
		rt, err = NewDurable(context.Background(), conf, j)
	}
	if err != nil {
		t.Fatal(err)
	}
	rt.SetRetryPolicy(noSleepPolicy())
	return rt
}

// chaosSetup builds a redundant five-switch fabric carrying one stateful
// policy (Clients→Web, H-IDS escalation) and one temporal policy
// (Clients→DB, FW by day / byte-counter by night), so the soak exercises
// mobility, temporal, and stateful dynamics at once.
func chaosSetup(t testing.TB) (*core.Configurator, map[string]topo.NodeID) {
	return chaosSetupCfg(t, core.Config{})
}

// chaosSetupCfg is chaosSetup with an explicit solver config (the delta
// differential harness builds delta-on and delta-off twins of the fabric).
func chaosSetupCfg(t testing.TB, cfg core.Config) (*core.Configurator, map[string]topo.NodeID) {
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
	conf, err := core.New(tp, composeWriters(t, chaosWriters(10, false)...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return conf, sw
}

// chaosWriters returns the fabric's writer graphs: "web", whose default
// edge reserves webMbps, and "db", plus, with peer, a writer of
// Clients→Clients traffic, whose pair sorts before both others and so
// takes policy ID 0 and renumbers them.
func chaosWriters(webMbps float64, peer bool) []*policy.Graph {
	g1 := policy.NewGraph("web")
	g1.AddEdge(policy.Edge{Src: "Clients", Dst: "Web", Default: true,
		QoS: policy.QoS{BandwidthMbps: webMbps}})
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
	out := []*policy.Graph{g1, g2}
	if peer {
		g3 := policy.NewGraph("peer")
		g3.AddEPG(policy.NewEPG("Peers", "Clients"))
		g3.AddEdge(policy.Edge{Src: "Clients", Dst: "Peers", QoS: policy.QoS{BandwidthMbps: 20}})
		out = append(out, g3)
	}
	return out
}

// composeWriters composes writer graphs or fails the test.
func composeWriters(t testing.TB, writers ...*policy.Graph) *compose.Graph {
	t.Helper()
	cg, err := compose.New(nil).Compose(writers...)
	if err != nil {
		t.Fatal(err)
	}
	return cg
}

// chaosSchedule is the chaos soak's 48 steps on the fabric (rng 42): moves
// of the clients, hour ticks from the driving clock and failed-connection
// counters, with core1–core2 failing at step 12 and restored at step 30
// where the failure took.
func chaosSchedule(sw map[string]topo.NodeID) Schedule {
	return Schedule{Name: "chaos", Steps: 48, Source: func() Source {
		rng := rand.New(rand.NewSource(42))
		switches := []topo.NodeID{sw["e1"], sw["e2"], sw["agg"], sw["core1"], sw["core2"]}
		clients := []string{"c1", "c2"}
		targets := []string{"web", "db"}
		return func(i int, s *Side) Step {
			switch i {
			case 12:
				return Step{Event: Event{Kind: EventLinkFail, From: sw["core1"], To: sw["core2"]}}
			case 30:
				return Step{Event: Event{Kind: EventLinkRestore, From: sw["core1"], To: sw["core2"]}, IfDown: true}
			}
			switch roll := rng.Intn(10); {
			case roll < 4:
				return Step{Event: Event{Kind: EventMove, Endpoint: clients[rng.Intn(len(clients))], To: switches[rng.Intn(len(switches))]}}
			case roll < 7:
				return Step{Event: Event{Kind: EventHour, Hour: (s.RT.Hour() + 1 + rng.Intn(5)) % policy.HoursPerDay}}
			}
			return Step{Event: Event{Kind: EventCounter, Src: clients[rng.Intn(len(clients))], Dst: targets[rng.Intn(len(targets))],
				Event: policy.FailedConnections, Delta: 1 + rng.Intn(3)}}
		}
	}}
}

// crashSchedule is the crash soak's 18 steps on the fabric (rng 77), over
// every dynamics recovery must survive: moves, hour ticks across period
// boundaries, counters tripping the H-IDS escalation, and core1–core2
// failing at step 6 and restored at step 12. It keeps its own clock, so a
// tick's target reads no feedback and every crashed run replays the
// reference's events.
func crashSchedule(sw map[string]topo.NodeID) Schedule {
	return Schedule{Name: "crash", Steps: 18, Source: func() Source {
		rng := rand.New(rand.NewSource(77))
		switches := []topo.NodeID{sw["e1"], sw["e2"], sw["core1"], sw["core2"]}
		clients := []string{"c1", "c2"}
		hour := 0
		return func(i int, _ *Side) Step {
			switch i {
			case 6:
				return Step{Event: Event{Kind: EventLinkFail, From: sw["core1"], To: sw["core2"]}}
			case 12:
				return Step{Event: Event{Kind: EventLinkRestore, From: sw["core1"], To: sw["core2"]}}
			}
			switch roll := rng.Intn(10); {
			case roll < 4:
				return Step{Event: Event{Kind: EventMove, Endpoint: clients[rng.Intn(len(clients))], To: switches[rng.Intn(len(switches))]}}
			case roll < 7:
				hour = (hour + 1 + rng.Intn(5)) % policy.HoursPerDay
				return Step{Event: Event{Kind: EventHour, Hour: hour}}
			}
			return Step{Event: Event{Kind: EventCounter, Src: clients[rng.Intn(len(clients))], Dst: "web",
				Event: policy.FailedConnections, Delta: 1 + rng.Intn(3)}}
		}
	}}
}

// deltaDiffSchedule is the deltadiff trace of n events on the fabric, drawn
// from seed: moves of clients and targets, hour ticks from the driving
// clock, counters and benign relabels, with core1–core2 failing at n/4 and
// restored at 3n/4 where the failure took. With swaps, deltaDiffSwap's
// graph swaps come as steps of their own ahead of their events.
func deltaDiffSchedule(name string, sw map[string]topo.NodeID, seed int64, n int, swaps bool) Schedule {
	steps := n
	for i := 0; swaps && i < n; i++ {
		if deltaDiffSwap(i, n) != nil {
			steps++
		}
	}
	return Schedule{Name: name, Steps: steps, Source: func() Source {
		rng := rand.New(rand.NewSource(seed))
		e, swapped := 0, false
		return func(_ int, s *Side) Step {
			if w := deltaDiffSwap(e, n); swaps && w != nil && !swapped {
				swapped = true
				return Step{Swap: w}
			}
			swapped = false
			e++
			return deltaDiffEvent(rng, sw, e-1, n, s.RT.Hour())
		}
	}}
}

// deltaDiffEvent draws event i of an n-event deltadiff trace from rng. An
// hour tick advances from hour, the clock of the runtime driving the trace.
func deltaDiffEvent(rng *rand.Rand, sw map[string]topo.NodeID, i, n, hour int) Step {
	switches := []topo.NodeID{sw["e1"], sw["e2"], sw["agg"], sw["core1"], sw["core2"]}
	clients := []string{"c1", "c2"}
	targets := []string{"web", "db"}
	switch {
	case i == n/4:
		return Step{Event: Event{Kind: EventLinkFail, From: sw["core1"], To: sw["core2"]}}
	case i == n/4*3:
		return Step{Event: Event{Kind: EventLinkRestore, From: sw["core1"], To: sw["core2"]}, IfDown: true}
	}
	switch roll := rng.Intn(10); {
	case roll < 3:
		return Step{Event: Event{Kind: EventMove, Endpoint: clients[rng.Intn(len(clients))], To: switches[rng.Intn(len(switches))]}}
	case roll < 5:
		return Step{Event: Event{Kind: EventMove, Endpoint: targets[rng.Intn(len(targets))], To: switches[rng.Intn(len(switches))]}}
	case roll < 7:
		return Step{Event: Event{Kind: EventHour, Hour: (hour + 1 + rng.Intn(5)) % policy.HoursPerDay}}
	case roll < 9:
		return Step{Event: Event{Kind: EventCounter, Src: clients[rng.Intn(len(clients))], Dst: targets[rng.Intn(len(targets))],
			Event: policy.FailedConnections, Delta: 1 + rng.Intn(3)}}
	}
	return Step{Event: Event{Kind: EventRelabel, Endpoint: clients[rng.Intn(len(clients))], Labels: []string{"Clients"}}}
}

// deltaDiffSwap returns the writer graphs a deltadiff trace of n events
// swaps in before event i, or nil: the web writer's bandwidth redrawn and
// then restored, and the peer writer, whose pair sorts first and so
// renumbers every other policy, added and later removed.
func deltaDiffSwap(i, n int) []*policy.Graph {
	switch i {
	case n / 6:
		return chaosWriters(40, false)
	case n / 3:
		return chaosWriters(10, false)
	case n / 2:
		return chaosWriters(10, true)
	case n / 6 * 5:
		return chaosWriters(10, false)
	}
	return nil
}

// fastsoakSchedule is the classifier swap soak's 36 steps on the fabric
// (rng 7): escalation counters (swaps without a solve), client moves, hour
// ticks from the driving clock, and core1–core2 failing, or restored once a
// failure took.
func fastsoakSchedule(sw map[string]topo.NodeID) Schedule {
	return Schedule{Name: "fastsoak", Steps: 36, Source: func() Source {
		rng := rand.New(rand.NewSource(7))
		switches := []topo.NodeID{sw["e1"], sw["e2"], sw["agg"], sw["core1"], sw["core2"]}
		clients := []string{"c1", "c2"}
		return func(_ int, s *Side) Step {
			switch roll := rng.Intn(10); {
			case roll < 3:
				return Step{Event: Event{Kind: EventCounter, Src: clients[rng.Intn(2)], Dst: "web", Event: policy.FailedConnections, Delta: 2}}
			case roll < 6:
				return Step{Event: Event{Kind: EventMove, Endpoint: clients[rng.Intn(2)], To: switches[rng.Intn(len(switches))]}}
			case roll < 8:
				return Step{Event: Event{Kind: EventHour, Hour: (s.RT.Hour() + 1 + rng.Intn(5)) % policy.HoursPerDay}}
			case s.LinkDown:
				return Step{Event: Event{Kind: EventLinkRestore, From: sw["core1"], To: sw["core2"]}}
			}
			return Step{Event: Event{Kind: EventLinkFail, From: sw["core1"], To: sw["core2"]}}
		}
	}}
}

// ledgerSchedule is n steps of ledgerGen's stream of every event kind over
// a generated workload.
func ledgerSchedule(name string, seed int64, w *workload.Workload, n int) Schedule {
	return Schedule{Name: name, Steps: n, Source: func() Source {
		g := newLedgerGen(seed, w.Topo, w.Spec)
		return func(int, *Side) Step { return Step{Event: g.next()} }
	}}
}

// roamSchedule is n steps of ledgerGen's roaming: each step draws a
// relabel, then, on a coin flip, a move in its stead.
func roamSchedule(name string, seed int64, w *workload.Workload, n int) Schedule {
	return Schedule{Name: name, Steps: n, Source: func() Source {
		g := newLedgerGen(seed, w.Topo, w.Spec)
		return func(int, *Side) Step {
			ev := g.relabel()
			if g.rng.Intn(2) == 0 {
				ev = g.move()
			}
			return Step{Event: ev}
		}
	}}
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
// whose full solves run to the node limit. bench/events.go's generator
// mirrors it.
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
