package runtime

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/store"
	"janus/internal/topo"
	"janus/internal/workload"
)

// Oracle checks a run of a schedule (see drive). Every hook is optional.
// Before sees the sides ahead of a step, After sees them behind it, with
// each side's error from the step in its Err, and End sees the finished
// run. The testing.TB a hook gets names the schedule and the step in every
// failure it reports.
type Oracle struct {
	Before func(t testing.TB, sides []*Side)
	After  func(t testing.TB, i int, st Step, sides []*Side)
	End    func(t testing.TB, sides []*Side)
}

// periodHolds: after every step, each side's live result is for the period
// that contains its clock.
func periodHolds() Oracle {
	return Oracle{After: func(t testing.TB, _ int, _ Step, sides []*Side) {
		for _, s := range sides {
			r := s.RT
			if got, want := r.Current().Period, r.conf.Graph().PeriodAt(r.Hour()); got != want {
				t.Fatalf("%s: live result is for period %d at hour %d, want %d", s.Name, got, r.Hour(), want)
			}
		}
	}}
}

// auditClean: every step that succeeds leaves each side's self-audit
// clean: no blackholes, no silently dropped chains.
func auditClean() Oracle {
	return Oracle{After: func(t testing.TB, _ int, _ Step, sides []*Side) {
		for _, s := range sides {
			if s.Err != nil {
				continue
			}
			if vs := s.RT.Audit(); len(vs) != 0 {
				t.Fatalf("%s: audit violations after success: %v", s.Name, vs)
			}
		}
	}}
}

// failedKeepsRules: a step that fails without partial progress (no
// quarantine fired, no clock moved) leaves the side's rule set bit for bit
// as it was.
func failedKeepsRules() Oracle {
	type was struct {
		rules             map[string][]dataplane.Rule
		quarantined, hour int
	}
	var before []was
	return Oracle{
		Before: func(_ testing.TB, sides []*Side) {
			before = before[:0]
			for _, s := range sides {
				before = append(before, was{snapshotRules(s.RT.Network()), s.RT.Metrics().QuarantinedSwitches, s.RT.Hour()})
			}
		},
		After: func(t testing.TB, _ int, _ Step, sides []*Side) {
			for k, s := range sides {
				b := before[k]
				if s.Err == nil || s.RT.Metrics().QuarantinedSwitches != b.quarantined || s.RT.Hour() != b.hour {
					continue
				}
				if !reflect.DeepEqual(b.rules, snapshotRules(s.RT.Network())) {
					t.Fatalf("%s: failed step mutated the rule set: %v", s.Name, s.Err)
				}
			}
		},
	}
}

// chaosExercised: at the end, the run did what a chaos soak is for: at
// least half its steps succeeded, the link flap took both ways, injected
// op failures, retries and the scheduled crash fired, and every
// reconfiguration recorded its serving tier.
func chaosExercised() Oracle {
	steps, ok := 0, 0
	failed, restored := false, false
	return Oracle{
		After: func(_ testing.TB, _ int, st Step, sides []*Side) {
			err := sides[0].Err
			steps++
			if err == nil {
				ok++
			}
			switch st.Event.Kind {
			case EventLinkFail:
				failed = err == nil
			case EventLinkRestore:
				restored = failed && err == nil
			}
		},
		End: func(t testing.TB, sides []*Side) {
			rt := sides[0].RT
			if ok < steps/2 {
				t.Errorf("only %d/%d events succeeded; soak barely exercised the runtime", ok, steps)
			}
			if !failed || !restored {
				t.Errorf("link flap incomplete: failed=%v restored=%v", failed, restored)
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
				t.Error("no retries recorded despite injected op failures")
			}
			t.Logf("soak: %d ok / %d failed events; ops=%d failed=%d crashes=%d retries=%d rollbacks=%d quarantined=%d tiers=%v",
				ok, steps-ok, stats.OpsAttempted, stats.OpsFailed, stats.Crashes,
				m.ApplyRetries, m.ApplyRollbacks, m.QuarantinedSwitches, m.TierCounts)
		},
	}
}

// journalStates records into states the serialized state of side s at
// every journal boundary it passes, keyed by seq: after boot, and after
// every step. A step that journals nothing changed nothing, so its state
// is the one already recorded at that seq.
func journalStates(t testing.TB, s *Side, seq func() uint64, states map[uint64]string) Oracle {
	states[seq()] = marshalState(t, s.RT.State())
	return Oracle{After: func(t testing.TB, _ int, _ Step, _ []*Side) {
		states[seq()] = marshalState(t, s.RT.State())
	}}
}

// marshalState serializes a state for byte-identical comparison.
func marshalState(t testing.TB, s *store.State) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshaling state: %v", err)
	}
	return string(b)
}

// countingJournal counts appends without persisting anything, so the
// reference runtime's event→sequence mapping matches a durable runtime's
// exactly: a failed event that mutated nothing appends no record and so
// consumes no sequence number.
type countingJournal struct{ seq uint64 }

func (j *countingJournal) Append(*store.Record) error { j.seq++; return nil }

// durableSide is a side journaled to a store on a crash-injecting file
// system. Once its store is closed, ops and crashed say how many disk
// operations it counted and whether the crash fired.
type durableSide struct {
	*Side
	fs      *store.CrashFS
	st      *store.Store
	ops     int
	crashed bool
}

// newDurableSide boots a runtime on conf journaled to a store on fs. If fs
// crashed during the boot, the side it returns has no Side.
func newDurableSide(t testing.TB, name string, conf *core.Configurator, cfg core.Config, fs *store.CrashFS, opts store.Options) *durableSide {
	t.Helper()
	st, err := store.Open(fs, "data", opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	rt, err := NewDurable(context.Background(), conf, st)
	if err != nil {
		if fs.Crashed() {
			return &durableSide{fs: fs, st: st}
		}
		t.Fatalf("NewDurable: %v", err)
	}
	rt.SetRetryPolicy(noSleepPolicy())
	st.SetSnapshotSource(rt.State)
	return &durableSide{Side: &Side{Name: name, RT: rt, Cfg: cfg, Done: fs.Crashed}, fs: fs, st: st}
}

// reopen closes the side's store and opens it again, as a restart after a
// graceful shutdown does. The caller closes the store it returns.
func (d *durableSide) reopen(t testing.TB) *store.Store {
	t.Helper()
	if err := d.st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(d.fs, "data", store.Options{})
	if err != nil {
		t.Fatalf("reopening the journal: %v", err)
	}
	return st
}

// recovers: at the end of the run, the side's store, closed or crashed,
// recovers after a restart into states at a journal boundary no earlier
// than its last acked record, and that state restores into an
// audit-clean runtime (see recoverAndCheck).
func (d *durableSide) recovers(states map[uint64]string) Oracle {
	return Oracle{End: func(t testing.TB, _ []*Side) { d.recoverAndCheck(t, d.Cfg, states) }}
}

// recoverAndCheck closes the store (a crash may land in the close's
// fsync), restarts the file system, reopens it, and asserts the recovered
// state (a) lands on a journal boundary no earlier than the last acked
// record, (b) is byte-identical to states at that boundary, and (c)
// restores into a runtime whose self-audit is clean and that serializes
// the same.
func (d *durableSide) recoverAndCheck(t testing.TB, cfg core.Config, states map[uint64]string) {
	t.Helper()
	if !d.fs.Crashed() {
		if err := d.st.Close(); err != nil && !d.fs.Crashed() {
			t.Fatalf("close: %v", err)
		}
	}
	d.ops, d.crashed = d.fs.Ops(), d.fs.Crashed()
	acked := d.st.LastSeq()
	d.fs.Restart()
	st2, err := store.Open(d.fs, "data", store.Options{})
	if err != nil {
		t.Fatalf("recovery open: %v\nfs:\n%s", err, d.fs.Dump())
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	// No acked event may be lost; at most the record in flight at the
	// crash may additionally have become durable.
	seq := st2.RecoveryInfo().LastSeq
	if seq < acked || seq > acked+1 {
		t.Fatalf("recovered seq %d, acked %d\nfs:\n%s", seq, acked, d.fs.Dump())
	}
	state := st2.RecoveredState()
	if seq == 0 {
		if state != nil {
			t.Fatalf("empty journal produced state %+v", state)
		}
		return
	}
	want, ok := states[seq]
	if !ok {
		t.Fatalf("no reference state for seq %d", seq)
	}
	if got := marshalState(t, state); got != want {
		t.Fatalf("recovered state at seq %d diverges from reference\ngot:  %s\nwant: %s", seq, got, want)
	}
	rt, err := Restore(state, cfg, nil)
	if err != nil {
		t.Fatalf("restore at seq %d: %v", seq, err)
	}
	if vs := rt.Audit(); len(vs) != 0 {
		t.Fatalf("restored runtime fails audit at seq %d: %v", seq, vs)
	}
	if got := marshalState(t, rt.State()); got != want {
		t.Fatalf("restored runtime re-serializes differently at seq %d\ngot:  %s\nwant: %s", seq, got, want)
	}
}

// deltaMatchesFull holds twin sides, delta solving on and off: after every
// step both took in worlds that are still comparable (the same
// quarantines and link state; under injected faults their op streams
// differ and these can diverge), their satisfied counts agree within
// bound; at the end, only the first side has solved by delta.
func deltaMatchesFull(bound int) Oracle {
	return Oracle{
		After: func(t testing.TB, _ int, _ Step, sides []*Side) {
			on, off := sides[0], sides[1]
			if on.Err != nil || off.Err != nil || on.LinkDown != off.LinkDown ||
				on.RT.Metrics().QuarantinedSwitches != off.RT.Metrics().QuarantinedSwitches {
				return
			}
			satOn, satOff := on.RT.Current().SatisfiedCount(), off.RT.Current().SatisfiedCount()
			if d := satOn - satOff; d < -bound || d > bound {
				t.Fatalf("satisfied diverged beyond bound %d: %s=%d %s=%d", bound, on.Name, satOn, off.Name, satOff)
			}
		},
		End: func(t testing.TB, sides []*Side) {
			mOn, mOff := sides[0].RT.Metrics(), sides[1].RT.Metrics()
			if mOn.DeltaSolves == 0 {
				t.Errorf("%s never served an event incrementally", sides[0].Name)
			}
			if mOff.DeltaSolves != 0 || mOff.DeltaFallbacks != 0 {
				t.Errorf("%s recorded delta activity: solves=%d fallbacks=%d", sides[1].Name, mOff.DeltaSolves, mOff.DeltaFallbacks)
			}
			t.Logf("deltadiff: delta-on served %d incremental / %d fallback; affected total %d",
				mOn.DeltaSolves, mOn.DeltaFallbacks, mOn.DeltaAffectedPolicies)
		},
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

// resolveReplay is the re-solve replay of the side's journal j. Every
// graph swap must take. At the end, each record's derived input is fed to
// a fresh runtime on the fabric that solves it, and the result it installs
// must equal the recorded one byte for byte; an event whose record is not
// a rollback must also replay without error. A record carrying a composed
// graph replays as a swap to that graph, as read back from the journal.
// One solver worker (cfg) keeps both runs' searches identical. Only
// results are compared: a rolled-back tick journals the clock it stopped
// at, not the hour it aimed for, so its metrics cannot be replayed.
func resolveReplay(j *roundTripJournal, cfg core.Config) Oracle {
	events, failed, swaps := 0, 0, 0
	return Oracle{
		After: func(t testing.TB, _ int, st Step, sides []*Side) {
			switch err := sides[0].Err; {
			case st.Swap != nil && err != nil:
				t.Fatalf("graph swap: %v", err)
			case st.Swap != nil:
				swaps++
			case err != nil:
				events++
				failed++
			default:
				events++
			}
		},
		End: func(t testing.TB, _ []*Side) {
			ctx := context.Background()
			conf, _ := chaosSetupCfg(t, cfg)
			fresh, err := New(ctx, conf)
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
		},
	}
}

// ledgerLines writes one ledger line per step of a side journaled to j,
// under a header naming the stream and the initial configuration's line:
// the step's event kind and record kind, whether a delta or a full solve
// produced the journaled result (with the delta's affected and frozen
// counts), the satisfied count, branch-and-bound nodes, LP pivots and the
// first 12 hex digits of the record's SHA-256. A step that fails without
// changing anything journals nothing and gets a line saying so.
func ledgerLines(t testing.TB, out *bytes.Buffer, name string, j *roundTripJournal) Oracle {
	fmt.Fprintf(out, "# %s\n", name)
	writeLedgerLine(t, out, 0, "configure", j)
	before := 0
	return Oracle{
		Before: func(testing.TB, []*Side) { before = len(j.recs) },
		After: func(t testing.TB, i int, st Step, _ []*Side) {
			if len(j.recs) == before {
				fmt.Fprintf(out, "%d %s none\n", i+1, st.Event.Kind)
				return
			}
			writeLedgerLine(t, out, i+1, st.Event.Kind, j)
		},
	}
}

func writeLedgerLine(t testing.TB, out *bytes.Buffer, i int, kind string, j *roundTripJournal) {
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

// pathCacheLive holds the configurator's path cache to the network as it
// is after every step, each of which must succeed: one entry per distinct
// live (src attach, dst attach, chain) triple of w's policies, and product
// distance tables within the switches times the distinct chains.
func pathCacheLive(w *workload.Workload) Oracle {
	tp := w.Topo
	chains := map[string]bool{}
	for _, p := range w.Graph.Policies {
		for _, e := range p.AllEdges() {
			chains[e.Chain.String()] = true
		}
	}
	maxTables := len(tp.NodesOfKind(topo.Switch, "")) * len(chains)
	live := func() int {
		keys := map[string]bool{}
		for _, p := range w.Graph.Policies {
			dsts := tp.EndpointsMatching(p.Dst)
			for _, s := range tp.EndpointsMatching(p.Src) {
				src, _ := tp.EndpointByName(s)
				for _, d := range dsts {
					dst, _ := tp.EndpointByName(d)
					if s == d {
						continue
					}
					for _, e := range p.AllEdges() {
						keys[fmt.Sprintf("%d|%d|%s", src.Attach, dst.Attach, e.Chain)] = true
					}
				}
			}
		}
		return len(keys)
	}
	peak := 0
	return Oracle{
		After: func(t testing.TB, _ int, _ Step, sides []*Side) {
			s := sides[0]
			if s.Err != nil {
				t.Fatal(s.Err)
			}
			entries, tables := s.RT.conf.PathCacheLen()
			if want := live(); entries != want {
				t.Fatalf("the path cache holds %d entries, want the %d live triples", entries, want)
			}
			if tables > maxTables {
				t.Fatalf("%d product distance tables, want at most %d switches × chains", tables, maxTables)
			}
			peak = max(peak, entries)
		},
		End: func(t testing.TB, sides []*Side) {
			_, tables := sides[0].RT.conf.PathCacheLen()
			t.Logf("at most %d entries; %d product tables of at most %d", peak, tables, maxTables)
		},
	}
}

// generationReplay is the classifier swap soak's oracle over side s.
// Reader goroutines hammer the compiled lookups from the start of the run
// while the steps reconfigure, roll back and escalate, each of which swaps
// the compiled structure. It holds:
//
//   - the generation counter is monotone: +1 per recompile on the writer
//     side, never decreasing as seen by any reader;
//   - no torn reads: every (probe, observed result) a reader records is
//     exactly what the interpreted dataplane produces for the rule set of
//     the generation that served it, verified at the end by replaying
//     every generation's journaled rule set on a fresh network.
func generationReplay(t testing.TB, s *Side) Oracle {
	rt := s.RT
	// Per-generation journal: the exact rules each compile saw, plus the
	// topology at that instant (endpoint attachments move mid-soak and the
	// interpreted replay needs them as they were).
	type genState struct {
		rules    []dataplane.Rule
		topoJSON []byte
	}
	var genMu sync.Mutex
	states := map[uint64]genState{}
	var lastGen uint64
	var writerErr error // reported by the step that recompiled
	record := func(gen uint64, rules []dataplane.Rule) {
		tj, err := json.Marshal(rt.topo)
		genMu.Lock()
		defer genMu.Unlock()
		if gen != lastGen+1 {
			err = fmt.Errorf("writer-side generation not monotone: %d after %d", gen, lastGen)
		}
		writerErr = cmp.Or(writerErr, err)
		lastGen = gen
		states[gen] = genState{rules: rules, topoJSON: tj}
	}
	// The bring-up install already compiled generation 1; journal it by
	// hand, then observe every subsequent recompile.
	if c0 := rt.Network().Fastpath(); c0 == nil || c0.Generation() != 1 {
		t.Fatalf("bring-up should publish generation 1, got %v", c0)
	}
	record(1, rt.Network().AllRules())
	rt.Network().SetRecompileObserver(record)

	probes := []struct {
		src, dst string
		proto    policy.Protocol
		port     int
	}{
		{"c1", "web", policy.TCP, 80},
		{"c2", "web", policy.TCP, 443},
		{"c1", "db", policy.TCP, 5432},
		{"c2", "db", policy.UDP, 53},
		{"web", "c1", policy.TCP, 80}, // reverse: no policy, expected blackhole/delivered
		{"c1", "c2", policy.UDP, 7},
	}
	type obsKey struct {
		gen   uint64
		probe int
	}
	type obsVal struct{ path, err string }
	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	observations := make([]map[obsKey]obsVal, readers)
	readerErrs := make([]error, readers)
	iterations := make([]atomic.Int64, readers)
	for ri := 0; ri < readers; ri++ {
		observations[ri] = map[obsKey]obsVal{}
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			obs := observations[ri]
			var prevGen uint64
			for i := 0; ; i++ {
				iterations[ri].Store(int64(i))
				select {
				case <-stop:
					return
				default:
				}
				pi := i % len(probes)
				p := probes[pi]
				c := rt.Network().Fastpath()
				gen := c.Generation()
				if gen < prevGen {
					readerErrs[ri] = fmt.Errorf("reader %d saw generation go backwards: %d after %d", ri, gen, prevGen)
					return
				}
				prevGen = gen
				path, err := c.Lookup(p.src, p.dst, p.proto, p.port)
				v := obsVal{path: fmt.Sprint([]topo.NodeID(path))}
				if err != nil {
					v.err = err.Error()
				}
				k := obsKey{gen: gen, probe: pi}
				if prev, ok := obs[k]; ok && prev != v {
					readerErrs[ri] = fmt.Errorf("reader %d: generation %d gave two results for probe %d: %+v vs %+v", ri, gen, pi, prev, v)
					return
				}
				obs[k] = v
			}
		}(ri)
	}

	return Oracle{After: func(t testing.TB, _ int, _ Step, _ []*Side) {
		genMu.Lock()
		defer genMu.Unlock()
		if writerErr != nil {
			t.Fatal(writerErr)
		}
	}, End: func(t testing.TB, _ []*Side) {
		// Don't stop until every reader has made real progress: on a fast
		// machine the steps can finish before the scheduler ever runs the
		// readers, and a soak with zero observations proves nothing.
		deadline := time.Now().Add(10 * time.Second)
		for {
			done := true
			for ri := range iterations {
				if iterations[ri].Load() < 2*int64(len(probes)) {
					done = false
				}
			}
			if done {
				break
			}
			if time.Now().After(deadline) {
				close(stop)
				wg.Wait()
				t.Fatal("readers starved: no progress within 10s")
			}
			time.Sleep(time.Millisecond)
		}
		close(stop)
		wg.Wait()
		for _, err := range readerErrs {
			if err != nil {
				t.Fatal(err)
			}
		}
		genMu.Lock()
		finalGen := lastGen
		genMu.Unlock()
		if finalGen < 5 {
			t.Fatalf("soak produced only %d generations; the step mix should swap far more", finalGen)
		}

		// Rebuild each generation's dataplane from its journaled topology
		// and rules, and hold every reader observation for that generation
		// to the interpreted reference. Any mismatch means a reader saw a
		// torn or stale-mixed structure.
		audited := 0
		for gen, st := range states {
			var tp topo.Topology
			if err := json.Unmarshal(st.topoJSON, &tp); err != nil {
				t.Fatalf("generation %d: decoding topo: %v", gen, err)
			}
			ref := dataplane.NewNetwork(&tp)
			if err := ref.ApplyPlan(ref.PlanUpdate(st.rules)); err != nil {
				t.Fatalf("generation %d: reinstalling journaled rules: %v", gen, err)
			}
			for ri := 0; ri < readers; ri++ {
				for k, v := range observations[ri] {
					if k.gen != gen {
						continue
					}
					p := probes[k.probe]
					wi, erri := ref.Lookup(p.src, p.dst, p.proto, p.port)
					want := obsVal{path: fmt.Sprint(wi)}
					if erri != nil {
						want.err = erri.Error()
					}
					if v != want {
						t.Errorf("generation %d probe %s->%s %s/%d: reader saw %+v, rule set says %+v",
							gen, p.src, p.dst, p.proto, p.port, v, want)
					}
					audited++
				}
			}
		}
		if audited == 0 {
			t.Fatal("no observations audited; readers never ran")
		}
		t.Logf("soak: %d generations, %d distinct observations audited", finalGen, audited)
	}}
}
