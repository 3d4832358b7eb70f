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

// soakSchedule builds a fixed, seeded event trace covering mobility
// (moves), temporal dynamics (hour advances across period boundaries),
// stateful dynamics (event counters tripping the H-IDS escalation), and
// link failure/restore — every dynamics suite recovery must survive.
// Both the never-crashed reference runtime and every crash-injected
// runtime apply the identical trace. The schedule keeps its own clock, so
// an hour tick's target is absolute.
func soakSchedule(sw map[string]topo.NodeID) []Event {
	rng := rand.New(rand.NewSource(77))
	switches := []topo.NodeID{sw["e1"], sw["e2"], sw["core1"], sw["core2"]}
	clients := []string{"c1", "c2"}
	hour := 0
	var evs []Event
	for i := 0; i < 18; i++ {
		switch {
		case i == 6:
			evs = append(evs, Event{Kind: EventLinkFail, From: sw["core1"], To: sw["core2"]})
		case i == 12:
			evs = append(evs, Event{Kind: EventLinkRestore, From: sw["core1"], To: sw["core2"]})
		default:
			switch roll := rng.Intn(10); {
			case roll < 4:
				evs = append(evs, Event{Kind: EventMove,
					Endpoint: clients[rng.Intn(len(clients))], To: switches[rng.Intn(len(switches))]})
			case roll < 7:
				hour = (hour + 1 + rng.Intn(5)) % policy.HoursPerDay
				evs = append(evs, Event{Kind: EventHour, Hour: hour})
			default:
				evs = append(evs, Event{Kind: EventCounter, Src: clients[rng.Intn(len(clients))], Dst: "web",
					Event: policy.FailedConnections, Delta: 1 + rng.Intn(3)})
			}
		}
	}
	return evs
}

// soakFaults is the dataplane fault plan both runs inject: a low op failure
// rate to exercise retries, and a scheduled mid-update switch crash so the
// journal sees a quarantine with its cascading link removals.
func soakFaults(sw map[string]topo.NodeID) dataplane.FaultPlan {
	return dataplane.FaultPlan{
		Seed:          11,
		Default:       dataplane.SwitchFaults{FailRate: 0.04},
		CrashAfterOps: map[topo.NodeID]int{sw["agg"]: 10},
	}
}

// marshalState serializes a state for byte-identical comparison.
func marshalState(t *testing.T, s *store.State) string {
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

// referenceStates runs the schedule on a never-crashed runtime over a
// persistence-free counting journal and records the serialized state at
// every journal boundary: after boot (seq 1) and after each event that
// journaled — exactly the states a durable runtime's journal passes
// through.
func referenceStates(t *testing.T, evs []Event) map[uint64]string {
	t.Helper()
	conf, sw := chaosSetup(t)
	j := &countingJournal{}
	rt, err := NewDurable(context.Background(), conf, j)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetRetryPolicy(noSleepPolicy())
	rt.Network().InjectFaults(soakFaults(sw))
	ctx := context.Background()
	states := map[uint64]string{j.seq: marshalState(t, rt.State())}
	for _, ev := range evs {
		// Failed events journal whatever they changed (counters, partial
		// topology changes, quarantines survive a rollback); only events
		// that changed nothing leave the sequence untouched.
		_ = rt.Apply(ctx, ev) //janus:allow(errdrop): soak schedules events that may fail; post-state is recorded either way
		checkPeriod(t, rt, fmt.Sprintf("reference %+v", ev))
		states[j.seq] = marshalState(t, rt.State())
	}
	return states
}

// driveDurable boots a durable runtime on fs and replays the schedule until
// the store crashes (or the schedule ends). Returns the number of appends
// acknowledged by the store.
func driveDurable(t *testing.T, fs *store.CrashFS, evs []Event, opts store.Options) uint64 {
	t.Helper()
	conf, sw := chaosSetup(t)
	st, err := store.Open(fs, "janus-data", opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	rt, err := NewDurable(context.Background(), conf, st)
	if err != nil {
		if fs.Crashed() {
			return st.LastSeq()
		}
		t.Fatalf("NewDurable: %v", err)
	}
	rt.SetRetryPolicy(noSleepPolicy())
	rt.Network().InjectFaults(soakFaults(sw))
	st.SetSnapshotSource(rt.State)
	ctx := context.Background()
	for _, ev := range evs {
		_ = rt.Apply(ctx, ev) //janus:allow(errdrop): events may fail by schedule or by injected crash; acked count is read from the store
		if fs.Crashed() {
			break
		}
	}
	if !fs.Crashed() {
		// The crash point may land inside the graceful close's fsync; that
		// is just another injected crash, not a harness failure.
		if err := st.Close(); err != nil && !fs.Crashed() {
			t.Fatalf("close: %v", err)
		}
	}
	return st.LastSeq()
}

// recoverAndCheck reopens the store after a restart and asserts the
// recovered state (a) lands on a journal boundary no earlier than the last
// acked record, (b) is byte-identical to the reference runtime at that
// boundary, and (c) restores into a runtime whose self-audit is clean.
func recoverAndCheck(t *testing.T, fs *store.CrashFS, refStates map[uint64]string, acked uint64, label string) {
	t.Helper()
	st, err := store.Open(fs, "janus-data", store.Options{})
	if err != nil {
		t.Fatalf("%s: recovery open: %v\nfs:\n%s", label, err, fs.Dump())
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("%s: close: %v", label, err)
		}
	}()
	info := st.RecoveryInfo()
	seq := info.LastSeq

	// No acked event may be lost; at most the record in flight at the
	// crash may additionally have become durable.
	if seq < acked || seq > acked+1 {
		t.Fatalf("%s: recovered seq %d, acked %d\nfs:\n%s", label, seq, acked, fs.Dump())
	}
	state := st.RecoveredState()
	if seq == 0 {
		if state != nil {
			t.Fatalf("%s: empty journal produced state %+v", label, state)
		}
		return
	}
	want, ok := refStates[seq]
	if !ok {
		t.Fatalf("%s: no reference state for seq %d", label, seq)
	}
	if got := marshalState(t, state); got != want {
		t.Fatalf("%s: recovered state at seq %d diverges from reference\ngot:  %s\nwant: %s",
			label, seq, got, want)
	}

	// The recovered state must restore into a live, audit-clean runtime
	// that still serializes identically.
	rt, err := Restore(state, core.Config{}, st)
	if err != nil {
		t.Fatalf("%s: restore at seq %d: %v", label, seq, err)
	}
	if vs := rt.Audit(); len(vs) != 0 {
		t.Fatalf("%s: restored runtime fails audit at seq %d: %v", label, seq, vs)
	}
	if got := marshalState(t, rt.State()); got != want {
		t.Fatalf("%s: restored runtime re-serializes differently at seq %d\ngot:  %s\nwant: %s",
			label, seq, got, want)
	}
}

// TestCrashSoak sweeps every injected crash point of the durable soak: for
// each counted disk operation k, a fresh runtime replays the schedule with
// the crash armed at k (torn record, partial fsync, or failed rename,
// depending on where k lands), restarts from disk, and must recover a
// state byte-identical to the never-crashed reference at the recovered
// sequence number.
func TestCrashSoak(t *testing.T) {
	evs := soakSchedule(mustSwitchMap(t))
	refStates := referenceStates(t, evs)
	opts := store.Options{SnapshotEvery: 5}

	// A clean run bounds the crash-point space. It must ack exactly the
	// sequence numbers the reference passed through (reference seqs are
	// contiguous from 1, so the map's size is its last seq).
	cleanFS := store.NewCrashFS(0)
	cleanAcked := driveDurable(t, cleanFS, evs, opts)
	if want := uint64(len(refStates)); cleanAcked != want {
		t.Fatalf("clean run acked %d records, want %d (one per boot and journaled event)", cleanAcked, want)
	}
	if cleanAcked < uint64(len(evs)/2) {
		t.Fatalf("clean run acked only %d records for %d events; schedule is not exercising the journal", cleanAcked, len(evs))
	}
	totalOps := cleanFS.Ops()
	recoverAndCheck(t, cleanFS, refStates, cleanAcked, "clean")
	if totalOps < 2*len(evs) {
		t.Fatalf("only %d disk ops for %d events; harness is not exercising the journal", totalOps, len(evs))
	}

	for point := 1; point <= totalOps; point++ {
		for _, seed := range []int64{1, 2} {
			label := fmt.Sprintf("point=%d/seed=%d", point, seed)
			fs := store.NewCrashFS(seed)
			fs.SetCrashAfter(point)
			acked := driveDurable(t, fs, evs, opts)
			if !fs.Crashed() {
				t.Fatalf("%s: crash never fired (ops=%d)", label, fs.Ops())
			}
			fs.Restart()
			recoverAndCheck(t, fs, refStates, acked, label)
		}
	}
}

// TestWarmRestartRecoversWithZeroReplay asserts the graceful-shutdown path:
// snapshot on close, then recovery loads the snapshot and replays nothing.
func TestWarmRestartRecoversWithZeroReplay(t *testing.T) {
	evs := soakSchedule(mustSwitchMap(t))
	fs := store.NewCrashFS(5)
	conf, sw := chaosSetup(t)
	st, err := store.Open(fs, "janus-data", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewDurable(context.Background(), conf, st)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetRetryPolicy(noSleepPolicy())
	rt.Network().InjectFaults(soakFaults(sw))
	st.SetSnapshotSource(rt.State)
	ctx := context.Background()
	for _, ev := range evs {
		_ = rt.Apply(ctx, ev) //janus:allow(errdrop): schedule events may fail; the journal records post-state regardless
	}
	want := marshalState(t, rt.State())
	if err := st.SnapshotNow(); err != nil {
		t.Fatalf("shutdown snapshot: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(fs, "janus-data", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
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

// mustSwitchMap builds the chaos topology once just to name its switches
// for schedule construction; the schedule only captures NodeIDs, which are
// identical across chaosSetup calls.
func mustSwitchMap(t *testing.T) map[string]topo.NodeID {
	t.Helper()
	_, sw := chaosSetup(t)
	return sw
}
