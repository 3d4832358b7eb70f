package runtime

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/store"
	"janus/internal/topo"
)

// The delta differential harness (make deltadiff): the same seeded event
// sequence is replayed in lockstep against two twin runtimes — delta
// solving on vs off — asserting after every event that (1) each runtime's
// self-audit is clean after a successful install, (2) the satisfied-policy
// counts of the two sides stay within the configured bound whenever their
// worlds are still comparable (no divergent quarantines or link states),
// (3) each runtime's live result is for the period that contains its
// clock, and (4) at the end, both journals recover into byte-identical restored
// states — the merged delta results must replay exactly like full ones.

// TestDeltaDiffDynamics runs the clean dynamics suite: mobility, temporal
// boundaries, stateful counters, benign relabels, one link flap and four
// graph swaps, with no fault injection.
func TestDeltaDiffDynamics(t *testing.T) {
	runDeltaDiff(t, deltaDiffOpts{seed: 101, events: 60, bound: 1})
}

// TestDeltaDiffChaos runs the same differential under the chaos fault
// plan (6% op failures plus a scheduled mid-update switch crash), where
// delta installs must also survive audit rejections and quarantines.
func TestDeltaDiffChaos(t *testing.T) {
	runDeltaDiff(t, deltaDiffOpts{seed: 11, events: 48, bound: 2, faults: true})
}

type deltaDiffOpts struct {
	seed   int64
	events int
	bound  int
	faults bool
}

// diffSide is one half of the differential: a journaled runtime plus the
// state needed to reopen and restore it.
type diffSide struct {
	name       string
	rt         *Runtime
	st         *store.Store
	fs         store.FS
	sw         map[string]topo.NodeID
	cfg        core.Config
	flapFailed bool
}

func newDiffSide(t *testing.T, name string, opts deltaDiffOpts, cfg core.Config) *diffSide {
	t.Helper()
	conf, sw := chaosSetupCfg(t, cfg)
	fs := store.NewCrashFS(opts.seed)
	st, err := store.Open(fs, "data", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewDurable(context.Background(), conf, st)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetRetryPolicy(noSleepPolicy())
	if opts.faults {
		rt.Network().InjectFaults(dataplane.FaultPlan{
			Seed:          opts.seed,
			Default:       dataplane.SwitchFaults{FailRate: 0.06},
			CrashAfterOps: map[topo.NodeID]int{sw["agg"]: 20},
		})
	}
	return &diffSide{name: name, rt: rt, st: st, fs: fs, sw: sw, cfg: cfg}
}

// apply runs ev on this side, keeping the side's link-flap state: a
// restore runs only after this side's failure took.
func (s *diffSide) apply(ctx context.Context, ev Event) error {
	if ev.Kind == EventLinkRestore && !s.flapFailed {
		return nil
	}
	err := s.rt.Apply(ctx, ev)
	if err == nil && (ev.Kind == EventLinkFail || ev.Kind == EventLinkRestore) {
		s.flapFailed = ev.Kind == EventLinkFail
	}
	return err
}

// comparable reports whether the two sides still inhabit equivalent
// worlds: under fault injection their rule-update op streams differ, so
// quarantines and link flaps can diverge, after which satisfied counts
// legitimately disagree.
func comparable(on, off *diffSide) bool {
	return on.rt.Metrics().QuarantinedSwitches == off.rt.Metrics().QuarantinedSwitches &&
		on.flapFailed == off.flapFailed
}

// deltaDiffEvent draws event i of an n-event deltadiff trace from rng. An
// hour tick advances from hour, the clock of the runtime driving the trace.
func deltaDiffEvent(rng *rand.Rand, sw map[string]topo.NodeID, i, n, hour int) Event {
	switches := []topo.NodeID{sw["e1"], sw["e2"], sw["agg"], sw["core1"], sw["core2"]}
	clients := []string{"c1", "c2"}
	targets := []string{"web", "db"}
	switch {
	case i == n/4:
		return Event{Kind: EventLinkFail, From: sw["core1"], To: sw["core2"]}
	case i == n/4*3:
		return Event{Kind: EventLinkRestore, From: sw["core1"], To: sw["core2"]}
	}
	switch roll := rng.Intn(10); {
	case roll < 3:
		return Event{Kind: EventMove, Endpoint: clients[rng.Intn(len(clients))], To: switches[rng.Intn(len(switches))]}
	case roll < 5:
		return Event{Kind: EventMove, Endpoint: targets[rng.Intn(len(targets))], To: switches[rng.Intn(len(switches))]}
	case roll < 7:
		return Event{Kind: EventHour, Hour: (hour + 1 + rng.Intn(5)) % policy.HoursPerDay}
	case roll < 9:
		return Event{Kind: EventCounter, Src: clients[rng.Intn(len(clients))], Dst: targets[rng.Intn(len(targets))],
			Event: policy.FailedConnections, Delta: 1 + rng.Intn(3)}
	}
	return Event{Kind: EventRelabel, Endpoint: clients[rng.Intn(len(clients))], Labels: []string{"Clients"}}
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

func runDeltaDiff(t *testing.T, opts deltaDiffOpts) {
	on := newDiffSide(t, "delta-on", opts, core.Config{})
	off := newDiffSide(t, "delta-off", opts, core.Config{DeltaDisable: true})
	sides := []*diffSide{on, off}
	rng := rand.New(rand.NewSource(opts.seed))
	ctx := context.Background()

	// step runs one step of the trace on both sides and checks them.
	step := func(i int, what string, apply func(*diffSide) error) {
		errs := map[string]error{}
		for _, s := range sides {
			recBefore := s.rt.Metrics().Reconfigurations
			errs[s.name] = apply(s)
			checkPeriod(t, s.rt, fmt.Sprintf("event %d %s on %s", i, what, s.name))
			// Every successful install must leave a clean audit. A successful
			// event that installed nothing (an AdvanceTo crossing no boundary)
			// is exempt: it cannot repair a world left inconsistent by an
			// earlier hard-failed event (e.g. a move whose every solve flunked
			// the self-audit — the endpoint stays moved, the rules roll back).
			if errs[s.name] == nil && s.rt.Metrics().Reconfigurations > recBefore {
				if vs := s.rt.Audit(); len(vs) != 0 {
					t.Fatalf("event %d %s on %s: audit violations after install: %v", i, what, s.name, vs)
				}
			}
		}
		if errs[on.name] == nil && errs[off.name] == nil && comparable(on, off) {
			satOn := on.rt.Current().SatisfiedCount()
			satOff := off.rt.Current().SatisfiedCount()
			if d := satOn - satOff; d < -opts.bound || d > opts.bound {
				t.Fatalf("event %d %s: satisfied diverged beyond bound %d: delta-on=%d delta-off=%d",
					i, what, opts.bound, satOn, satOff)
			}
		}
	}
	for i := 0; i < opts.events; i++ {
		if writers := deltaDiffSwap(i, opts.events); writers != nil {
			step(i, "graph swap", func(s *diffSide) error {
				return s.rt.UpdateGraph(ctx, composeWriters(t, writers...), s.cfg)
			})
		}
		ev := deltaDiffEvent(rng, on.sw, i, opts.events, on.rt.Hour())
		step(i, fmt.Sprintf("%+v", ev), func(s *diffSide) error { return s.apply(ctx, ev) })
	}

	mOn, mOff := on.rt.Metrics(), off.rt.Metrics()
	if mOn.DeltaSolves == 0 {
		t.Error("delta-on runtime never served an event incrementally")
	}
	if mOff.DeltaSolves != 0 || mOff.DeltaFallbacks != 0 {
		t.Errorf("delta-off runtime recorded delta activity: solves=%d fallbacks=%d",
			mOff.DeltaSolves, mOff.DeltaFallbacks)
	}
	t.Logf("deltadiff: delta-on served %d incremental / %d fallback; affected total %d",
		mOn.DeltaSolves, mOn.DeltaFallbacks, mOn.DeltaAffectedPolicies)

	// Journal replayability: each side's journal must recover into a
	// runtime whose serialized state is byte-identical to the live one.
	for _, s := range sides {
		want := marshalState(t, s.rt.State())
		if err := s.st.Close(); err != nil {
			t.Fatalf("%s: closing store: %v", s.name, err)
		}
		st2, err := store.Open(s.fs, "data", store.Options{})
		if err != nil {
			t.Fatalf("%s: reopening store: %v", s.name, err)
		}
		defer st2.Close()
		if got := marshalState(t, st2.RecoveredState()); got != want {
			t.Fatalf("%s: recovered state diverges from live state\ngot:  %s\nwant: %s", s.name, got, want)
		}
		rt2, err := Restore(st2.RecoveredState(), s.cfg, nil)
		if err != nil {
			t.Fatalf("%s: restore: %v", s.name, err)
		}
		if vs := rt2.Audit(); len(vs) != 0 {
			t.Fatalf("%s: restored runtime fails audit: %v", s.name, vs)
		}
		if got := marshalState(t, rt2.State()); got != want {
			t.Fatalf("%s: restored runtime re-serializes differently\ngot:  %s\nwant: %s", s.name, got, want)
		}
	}
}

// roundTripJournal keeps every record as it would read back from disk: a
// JSON encode and decode of what was appended.
type roundTripJournal struct{ recs []*store.Record }

func (j *roundTripJournal) Append(rec *store.Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	var back store.Record
	if err := json.Unmarshal(b, &back); err != nil {
		return err
	}
	j.recs = append(j.recs, &back)
	return nil
}

// recordEvent derives the event that produced a journal record from the
// input half it carries: the first topology op for moves, relabels and
// link events, the counter delta for counter and escalate records, and
// otherwise a tick to the record's hour. A rollback record carries the
// first of these that its failed event left behind.
func recordEvent(rec *store.Record) Event {
	if len(rec.TopoOps) > 0 {
		op := rec.TopoOps[0]
		switch op.Op {
		case store.TopoMove:
			return Event{Kind: EventMove, Endpoint: op.Endpoint, To: op.Node}
		case store.TopoRelabel:
			return Event{Kind: EventRelabel, Endpoint: op.Endpoint, Labels: op.Labels}
		case store.TopoRemoveLink:
			return Event{Kind: EventLinkFail, From: op.A, To: op.B}
		case store.TopoAddLink:
			return Event{Kind: EventLinkRestore, From: op.A, To: op.B}
		}
	}
	if c := rec.Counter; c != nil {
		return Event{Kind: EventCounter, Src: c.Src, Dst: c.Dst, Event: c.Event, Delta: c.Delta}
	}
	return Event{Kind: EventHour, Hour: rec.Hour}
}

// TestResolveReplay is the re-solve replay of a journal: it drives
// TestDeltaDiffDynamics's fault-free trace, graph swaps included, through
// a journaled runtime, then feeds each record's derived input to a fresh
// runtime that solves and requires the result it installs to equal the
// recorded one byte for byte; an event whose record is not a rollback must
// also replay without error. A record carrying a composed graph replays as
// a swap to that graph, as read back from the journal. One solver worker keeps both runs' searches identical. Only
// results are compared: a rolled-back tick journals the clock it stopped
// at, not the hour it aimed for, so its metrics cannot be replayed.
func TestResolveReplay(t *testing.T) {
	const seed, events = 101, 60
	cfg := core.Config{Workers: 1}
	ctx := context.Background()
	conf, sw := chaosSetupCfg(t, cfg)
	j := &roundTripJournal{}
	rt, err := NewDurable(ctx, conf, j)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	failed, swaps := 0, 0
	for i := 0; i < events; i++ {
		if writers := deltaDiffSwap(i, events); writers != nil {
			if err := rt.UpdateGraph(ctx, composeWriters(t, writers...), cfg); err != nil {
				t.Fatalf("graph swap before event %d: %v", i, err)
			}
			swaps++
		}
		if err := rt.Apply(ctx, deltaDiffEvent(rng, sw, i, events, rt.Hour())); err != nil {
			failed++
		}
	}

	conf2, _ := chaosSetupCfg(t, cfg)
	fresh, err := New(ctx, conf2)
	if err != nil {
		t.Fatal(err)
	}
	rollbacks := 0
	for i, rec := range j.recs {
		var ev Event
		switch {
		case i > 0 && rec.Graph != nil:
			if err := fresh.UpdateGraph(ctx, rec.Graph, cfg); err != nil {
				t.Fatalf("record %d (%s, replayed as a graph swap): %v", i+1, rec.Kind, err)
			}
		case i > 0:
			ev = recordEvent(rec)
			if err := fresh.Apply(ctx, ev); err != nil && rec.Kind != store.KindRollback {
				t.Fatalf("record %d (%s, replayed as %+v): %v", i+1, rec.Kind, ev, err)
			}
		}
		if rec.Kind == store.KindRollback {
			rollbacks++
		}
		got, err := json.Marshal(normalizeResult(fresh.Current()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(rec.Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("record %d (%s, replayed as %+v): re-solved result differs\ngot:  %s\nwant: %s",
				i+1, rec.Kind, ev, got, want)
		}
	}
	if len(j.recs) != events+swaps+1 || rollbacks != failed {
		t.Errorf("journal has %d records (%d rollbacks) for %d events (%d failed) and %d swaps, want one per event and swap plus the initial configure",
			len(j.recs), rollbacks, events, failed, swaps)
	}
}
