package runtime

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/store"
	"janus/internal/topo"
	"janus/internal/workload"
)

// The runtime soaks: each is one schedule driven over its sides with the
// oracles that hold on it (DESIGN.md, "Schedules and oracles").

// TestChaosSoak drives the chaos schedule under ≥5 % op failure on every
// switch, one mid-update switch crash and one link flap: the self-audit is
// clean after every successful step, hard-failed steps leave the rule set
// untouched, the live result is for the period that contains the clock,
// and every reconfiguration records its serving tier. agg crashes at its
// 20th operation, inside a move.
func TestChaosSoak(t *testing.T) { runChaosSoak(t, 20) }

// TestChaosSoakCrashInTick is the soak with agg crashing at its 9th
// operation: 9 is the smallest count that lands the crash inside an hour
// tick's install (event 10, the tick that crosses 9 h), so the quarantine
// and the re-solve around agg run within a period transition, and must
// install the period of the tick, not the one the clock left.
func TestChaosSoakCrashInTick(t *testing.T) { runChaosSoak(t, 9) }

func runChaosSoak(t *testing.T, crashAfter int) {
	conf, sw := chaosSetup(t)
	s := &Side{Name: "live", RT: start(t, conf, nil)}
	s.RT.Network().InjectFaults(dataplane.FaultPlan{
		Seed:          11,
		Default:       dataplane.SwitchFaults{FailRate: 0.06},
		CrashAfterOps: map[topo.NodeID]int{sw["agg"]: crashAfter},
	})
	drive(t, chaosSchedule(sw), []*Side{s}, periodHolds(), auditClean(), failedKeepsRules(), chaosExercised())
}

// crashFaults is the dataplane fault plan every crash soak run injects: a
// low op failure rate to exercise retries, and a scheduled mid-update
// switch crash so the journal sees a quarantine with its cascading link
// removals.
func crashFaults(sw map[string]topo.NodeID) dataplane.FaultPlan {
	return dataplane.FaultPlan{
		Seed:          11,
		Default:       dataplane.SwitchFaults{FailRate: 0.04},
		CrashAfterOps: map[topo.NodeID]int{sw["agg"]: 10},
	}
}

// crashReference drives the crash schedule on a never-crashed runtime over
// a persistence-free counting journal and returns its serialized state at
// every journal boundary: exactly the states a durable runtime's journal
// passes through.
func crashReference(t *testing.T) (Schedule, map[uint64]string) {
	conf, sw := chaosSetup(t)
	j := &countingJournal{}
	ref := &Side{Name: "reference", RT: start(t, conf, j)}
	ref.RT.Network().InjectFaults(crashFaults(sw))
	sched, states := crashSchedule(sw), map[uint64]string{}
	drive(t, sched, []*Side{ref}, periodHolds(), auditClean(), failedKeepsRules(),
		journalStates(t, ref, func() uint64 { return j.seq }, states))
	return sched, states
}

// crashRun drives sched over a durable runtime whose store on fs crashes
// where fs is armed to, and holds the restart to states.
func crashRun(t *testing.T, sched Schedule, fs *store.CrashFS, states map[uint64]string) *durableSide {
	conf, sw := chaosSetup(t)
	d := newDurableSide(t, "durable", conf, core.Config{}, fs, store.Options{SnapshotEvery: 5})
	if d.Side == nil {
		d.recoverAndCheck(t, core.Config{}, states)
		return d
	}
	d.RT.Network().InjectFaults(crashFaults(sw))
	drive(t, sched, []*Side{d.Side}, d.recovers(states))
	return d
}

// TestCrashSoak sweeps every injected crash point of the durable soak: for
// each counted disk operation k, a fresh runtime replays the crash
// schedule with the crash armed at k (torn record, partial fsync, or
// failed rename, depending on where k lands), restarts from disk, and must
// recover a state byte-identical to the never-crashed reference at the
// recovered sequence number.
func TestCrashSoak(t *testing.T) {
	sched, states := crashReference(t)

	// A clean run bounds the crash-point space. It must ack exactly the
	// sequence numbers the reference passed through (reference seqs are
	// contiguous from 1, so the map's size is its last seq).
	clean := crashRun(t, sched, store.NewCrashFS(0), states)
	if acked, want := clean.st.LastSeq(), uint64(len(states)); acked != want {
		t.Fatalf("clean run acked %d records, want %d (one per boot and journaled event)", acked, want)
	}
	if acked := clean.st.LastSeq(); acked < uint64(sched.Steps/2) {
		t.Fatalf("clean run acked only %d records for %d events; schedule is not exercising the journal", acked, sched.Steps)
	}
	if clean.ops < 2*sched.Steps {
		t.Fatalf("only %d disk ops for %d events; harness is not exercising the journal", clean.ops, sched.Steps)
	}
	for point := 1; point <= clean.ops; point++ {
		for _, seed := range []int64{1, 2} {
			fs := store.NewCrashFS(seed)
			fs.SetCrashAfter(point)
			if d := crashRun(t, sched, fs, states); !d.crashed {
				t.Fatalf("point=%d/seed=%d: crash never fired (ops=%d)", point, seed, d.ops)
			}
		}
	}
}

// TestWarmRestartRecoversWithZeroReplay asserts the graceful-shutdown path:
// snapshot on close, then recovery loads the snapshot and replays nothing.
func TestWarmRestartRecoversWithZeroReplay(t *testing.T) {
	conf, sw := chaosSetup(t)
	d := newDurableSide(t, "durable", conf, core.Config{}, store.NewCrashFS(5), store.Options{})
	d.RT.Network().InjectFaults(crashFaults(sw))
	drive(t, crashSchedule(sw), []*Side{d.Side})
	want := marshalState(t, d.RT.State())
	if err := d.st.SnapshotNow(); err != nil {
		t.Fatalf("shutdown snapshot: %v", err)
	}
	st2 := d.reopen(t)
	defer st2.Close()
	info := st2.RecoveryInfo()
	if !info.SnapshotLoaded || info.ReplayedRecords != 0 {
		t.Fatalf("warm restart info = %+v, want snapshot with zero replayed records", info)
	}
	if got := marshalState(t, st2.RecoveredState()); got != want {
		t.Fatalf("warm restart state diverges\ngot:  %s\nwant: %s", got, want)
	}
	rt2, err := Restore(st2.RecoveredState(), core.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vs := rt2.Audit(); len(vs) != 0 {
		t.Fatalf("restored runtime fails audit: %v", vs)
	}
}

// TestDeltaDiffDynamics is the delta differential on the clean dynamics
// trace: mobility, temporal boundaries, stateful counters, benign
// relabels, one link flap and four graph swaps, with no fault injection.
func TestDeltaDiffDynamics(t *testing.T) { runDeltaDiff(t, 101, 60, 1, false) }

// TestDeltaDiffChaos runs the same differential under the chaos fault plan
// (6 % op failures plus a scheduled mid-update switch crash), where delta
// installs must also survive audit rejections and quarantines.
func TestDeltaDiffChaos(t *testing.T) { runDeltaDiff(t, 11, 48, 2, true) }

// runDeltaDiff replays the deltadiff trace in lockstep on twin journaled
// runtimes, delta solving on and off: each side's self-audit is clean
// after every successful step and its live result is for the period of
// its clock, their satisfied counts agree within bound, and at the end
// both journals recover into byte-identical restored states: merged delta
// results must replay exactly like full ones.
func runDeltaDiff(t *testing.T, seed int64, events, bound int, faults bool) {
	var sides []*Side
	var sw map[string]topo.NodeID
	oracles := []Oracle{periodHolds(), auditClean(), failedKeepsRules(), deltaMatchesFull(bound)}
	for _, cfg := range []core.Config{{}, {DeltaDisable: true}} {
		var conf *core.Configurator
		conf, sw = chaosSetupCfg(t, cfg)
		name := map[bool]string{false: "delta-on", true: "delta-off"}[cfg.DeltaDisable]
		d := newDurableSide(t, name, conf, cfg, store.NewCrashFS(seed), store.Options{})
		if faults {
			d.RT.Network().InjectFaults(dataplane.FaultPlan{
				Seed:          seed,
				Default:       dataplane.SwitchFaults{FailRate: 0.06},
				CrashAfterOps: map[topo.NodeID]int{sw["agg"]: 20},
			})
		}
		states := map[uint64]string{}
		oracles = append(oracles, journalStates(t, d.Side, d.st.LastSeq, states), d.recovers(states))
		sides = append(sides, d.Side)
	}
	drive(t, deltaDiffSchedule("deltadiff", sw, seed, events, true), sides, oracles...)
}

// TestResolveReplay drives TestDeltaDiffDynamics's fault-free trace, graph
// swaps included, through a journaled runtime at one solver worker, and
// re-solves every record of its journal on a fresh one.
func TestResolveReplay(t *testing.T) {
	cfg := core.Config{Workers: 1}
	conf, sw := chaosSetupCfg(t, cfg)
	j := &roundTripJournal{}
	s := &Side{Name: "live", RT: start(t, conf, j), Cfg: cfg}
	drive(t, deltaDiffSchedule("resolve-replay", sw, 101, 60, true), []*Side{s},
		periodHolds(), auditClean(), failedKeepsRules(), resolveReplay(j, cfg))
}

// TestResolveReplayAbandoned drives TestResolveReplay's trace under 10 % op
// faults, with every other event abandoned by its client while its install
// backs off from a failed operation: such a step fails after taking in its
// change, must leave the rule set as it was, and journals a rollback that
// replays to the recorded result (see resolveReplay). auditClean is left
// off: an abandoned move leaves its endpoint moved under the old rules, and
// a later event that installs nothing, such as an hour tick inside a
// period, succeeds with that audit still dirty.
func TestResolveReplayAbandoned(t *testing.T) {
	cfg := core.Config{Workers: 1}
	conf, sw := chaosSetupCfg(t, cfg)
	j := &roundTripJournal{}
	s := &Side{Name: "live", RT: start(t, conf, j), Cfg: cfg}
	s.RT.Network().InjectFaults(dataplane.FaultPlan{Seed: 5, Default: dataplane.SwitchFaults{FailRate: 0.1}})
	failed := 0
	countFailed := Oracle{
		After: func(_ testing.TB, _ int, _ Step, sides []*Side) {
			if sides[0].Err != nil {
				failed++
			}
		},
		End: func(t testing.TB, sides []*Side) {
			rolledBack := sides[0].RT.Metrics().ApplyRollbacks
			t.Logf("%d steps failed, %d installs rolled back", failed, rolledBack)
			if failed == 0 || rolledBack == 0 {
				t.Errorf("the schedule abandoned no install")
			}
		},
	}
	sched := abandoning("resolve-replay-abandoned", deltaDiffSchedule("resolve-replay", sw, 101, 60, true), 2)
	drive(t, sched, []*Side{s}, periodHolds(), failedKeepsRules(), resolveReplay(j, cfg), countFailed)
}

// TestEventLedger holds the event loop to a per-event ledger: two seeded
// streams run at one solver worker through a journaled runtime, each step
// writing one ledger line (see ledgerLines). The lines must equal
// testdata/event-ledger.golden; a change that means to move them reruns
// with UPDATE_GOLDEN=1 and says which lines moved and why.
func TestEventLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var got bytes.Buffer
	stream := func(sched Schedule, conf *core.Configurator) {
		j := &roundTripJournal{}
		s := &Side{Name: "live", RT: start(t, conf, j)}
		drive(t, sched, []*Side{s}, ledgerLines(t, &got, sched.Name, j), periodHolds(), auditClean(), failedKeepsRules())
	}

	// TestResolveReplay's fault-free trace, without its graph swaps.
	conf, sw := chaosSetupCfg(t, core.Config{Workers: 1})
	stream(deltaDiffSchedule("resolve-replay", sw, 101, 60, false), conf)

	// Every event kind on a fig11 Ans instance.
	w := ansLedgerWorkload(t)
	conf, err := core.New(w.Topo, w.Graph, core.Config{CandidatePaths: 5, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	stream(ledgerSchedule("ans", 1, w, 120), conf)

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

// ansLedgerWorkload is the fig11 Ans instance the ledger's second stream
// runs on.
func ansLedgerWorkload(t testing.TB) *workload.Workload {
	w, err := workload.Generate("Ans", workload.Spec{Policies: 50, EndpointsPerPolicy: 2, TimePeriods: 4, StatefulEdges: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestFastpathSwapSoak is the swap-under-load race soak (run it under
// -race: `make fastsoak` does): readers hammer the compiled lookups while
// the fastsoak schedule reconfigures, rolls back and escalates (see
// generationReplay).
func TestFastpathSwapSoak(t *testing.T) {
	conf, sw := chaosSetup(t)
	s := &Side{Name: "live", RT: start(t, conf, nil)}
	drive(t, fastsoakSchedule(sw), []*Side{s}, generationReplay(t, s), periodHolds(), auditClean(), failedKeepsRules())
}

// TestPathCacheHoldsLiveTriples drives 2 000 seeded roaming moves and
// relabels on the fig11 Cwix instance and holds the configurator's path
// cache to the live triples after every one (see pathCacheLive). A cache
// that kept the entries of every attachment pair it had seen would grow
// past the live triples within a few roams. Each event pays a full
// self-audit of the Cwix install, so the stream takes about 20 s, and
// several minutes under -race, where it is skipped: it runs in one goroutine,
// and make deltadiff runs it without the detector.
func TestPathCacheHoldsLiveTriples(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a 2 000-event stream; short mode or -race")
	}
	w, err := workload.Generate("Cwix", workload.Spec{Policies: 50, EndpointsPerPolicy: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	conf, err := core.New(w.Topo, w.Graph, core.Config{CandidatePaths: 5, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := &Side{Name: "live", RT: start(t, conf, nil)}
	drive(t, roamSchedule("roam", 7, w, 2000), []*Side{s}, pathCacheLive(w), periodHolds())
}

// TestSchedulesReplay draws every schedule twice from its seed, in
// lockstep against the same runtime feedback, and requires identical steps.
// On the fabric the first draw is applied, so the feedback (clock, link
// state) moves as it does in a soak.
func TestSchedulesReplay(t *testing.T) {
	_, sw := chaosSetup(t)
	ans := ansLedgerWorkload(t)
	for _, sched := range []Schedule{
		chaosSchedule(sw), crashSchedule(sw), fastsoakSchedule(sw),
		deltaDiffSchedule("deltadiff", sw, 101, 60, true), deltaDiffSchedule("deltadiff-chaos", sw, 11, 48, true),
		abandoning("resolve-replay-abandoned", deltaDiffSchedule("resolve-replay", sw, 101, 60, true), 2),
		ledgerSchedule("ans", 1, ans, 120), roamSchedule("roam", 7, ans, 200),
	} {
		conf, _ := chaosSetup(t)
		s := &Side{Name: "live", RT: start(t, conf, nil)}
		onFabric := !strings.HasPrefix(sched.Name, "ans") && sched.Name != "roam"
		a, b := sched.Source(), sched.Source()
		for i := 0; i < sched.Steps; i++ {
			x, y := a(i, s), b(i, s)
			if !reflect.DeepEqual(x, y) {
				t.Fatalf("schedule %s step %d: replay drew %s, then %s", sched.Name, i, x, y)
			}
			if onFabric {
				s.Err = s.apply(t, context.Background(), x)
			}
		}
	}
}

// failureTB records the first failure reported to it and ends the
// goroutine that reported it, as testing.T does.
type failureTB struct {
	testing.TB
	msg string
}

func (f *failureTB) Helper()             {}
func (f *failureTB) Logf(string, ...any) {}
func (f *failureTB) Fatalf(format string, args ...any) {
	f.msg = fmt.Sprintf(format, args...)
	runtime.Goexit()
}
func (f *failureTB) Errorf(format string, args ...any) { f.Fatalf(format, args...) }

// TestOracleFailureNamesStep holds drive to naming, in every failure
// an oracle reports, the schedule, the step index and the step: from
// periodHolds on a runtime whose clock was moved out of its result's
// period at step 2, and from an End hook.
func TestOracleFailureNamesStep(t *testing.T) {
	_, sw := chaosSetup(t)
	sched := chaosSchedule(sw)
	sched.Steps = 6
	steps := map[int]Step{}
	run := func(oracles ...Oracle) string {
		conf, _ := chaosSetup(t)
		s := &Side{Name: "live", RT: start(t, conf, nil)}
		f := &failureTB{TB: t}
		done := make(chan struct{})
		go func() {
			defer close(done)
			drive(f, sched, []*Side{s}, append([]Oracle{{After: func(_ testing.TB, i int, st Step, _ []*Side) { steps[i] = st }}}, oracles...)...)
		}()
		<-done
		return f.msg
	}
	at := func(i int) string { return fmt.Sprintf("schedule chaos step %d %s: ", i, steps[i]) }

	moveClock := Oracle{After: func(_ testing.TB, i int, _ Step, sides []*Side) {
		r := sides[0].RT
		for h := 0; i == 2 && r.conf.Graph().PeriodAt(r.hour) == r.Current().Period; h++ {
			r.hour = h
		}
	}}
	if msg := run(moveClock, periodHolds()); !strings.HasPrefix(msg, at(2)+"live: live result is for period") {
		t.Errorf("failure reads %q, want it to start %q", msg, at(2))
	}
	if msg := run(Oracle{End: func(t testing.TB, _ []*Side) { t.Errorf("planted") }}); msg != "schedule chaos end: planted" {
		t.Errorf("failure reads %q, want %q", msg, "schedule chaos end: planted")
	}
}
