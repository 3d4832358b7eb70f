package runtime

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/store"
	"janus/internal/topo"
)

// TestInvalidRequestsJournalNothing asserts that failed events which mutate
// no runtime state append no journal record: the unauthenticated HTTP API
// must not let garbage POSTs grow the journal (and pay an fsync each) per
// request.
func TestInvalidRequestsJournalNothing(t *testing.T) {
	conf, sw := chaosSetup(t)
	d := newDurableSide(t, "live", conf, core.Config{}, store.NewCrashFS(1), store.Options{})
	defer d.st.Close()
	rt, st := d.RT, d.st
	boot := st.LastSeq()
	if boot != 1 {
		t.Fatalf("boot journaled %d records, want 1", boot)
	}

	ctx := context.Background()
	invalid := []struct {
		name string
		call func() error
	}{
		{"hour out of range", func() error { return rt.AdvanceTo(ctx, 99) }},
		{"uncovered flow", func() error { return rt.ReportEvent(ctx, "ghost", "web", policy.FailedConnections, 1) }},
		{"no such link", func() error { return rt.FailLink(ctx, sw["e1"], sw["e2"]) }},
		{"link not failed", func() error { return rt.RestoreLink(ctx, sw["core1"], sw["core2"]) }},
		{"unknown endpoint", func() error { return rt.MoveEndpoint(ctx, "ghost", sw["agg"]) }},
	}
	for _, tc := range invalid {
		if err := tc.call(); err == nil {
			t.Fatalf("%s: expected an error", tc.name)
		}
		if got := st.LastSeq(); got != boot {
			t.Fatalf("%s: journal grew to seq %d for a no-op failure", tc.name, got)
		}
	}

	// A valid event still journals exactly one record.
	if err := rt.ReportEvent(ctx, "c1", "web", policy.FailedConnections, 1); err != nil {
		t.Fatalf("valid counter event: %v", err)
	}
	if got := st.LastSeq(); got != boot+1 {
		t.Fatalf("valid event journaled to seq %d, want %d", got, boot+1)
	}
}

// TestGraphSwapQuarantineRecovers fails every rule operation on one switch
// while a graph swap installs, so the install quarantines the switch, and
// then reopens the journal: each swap, whether it lands or not, must
// recover into the live state. The topology a landed swap journals already
// lacks the quarantined switch's links, so its record must not carry their
// removals again; a failed swap journals only the removals.
func TestGraphSwapQuarantineRecovers(t *testing.T) {
	for _, name := range []string{"e1", "e2", "agg", "core1", "core2"} {
		conf, sw := chaosSetup(t)
		d := newDurableSide(t, name, conf, core.Config{}, store.NewCrashFS(3), store.Options{})
		rt := d.RT
		rt.Network().InjectFaults(dataplane.FaultPlan{Seed: 1,
			Switches: map[topo.NodeID]dataplane.SwitchFaults{sw[name]: {FailRate: 1}}})
		swapErr := rt.UpdateGraph(context.Background(), composeWriters(t, chaosWriters(10, true)...), core.Config{})
		if len(rt.Quarantined()) == 0 {
			t.Fatalf("%s: the swap quarantined nothing (err %v)", name, swapErr)
		}
		at := stepTB{t, fmt.Sprintf("%s (swap err %v): ", name, swapErr)}
		d.recoverAndCheck(at, core.Config{}, map[uint64]string{d.st.LastSeq(): marshalState(t, rt.State())})
	}
}

// TestRestoreKeepsNFStateLedger restores a runtime from its journaled
// state and fails the link its flow takes into a stateful firewall, on the
// live and the restored runtime alike: the flow moves to the other
// firewall, and both must count the one state transfer that move costs,
// so Restore must rebuild the per-flow middlebox ledger as it reinstalls.
func TestRestoreKeepsNFStateLedger(t *testing.T) {
	tp := topo.NewTopology("diamond")
	a, b := tp.AddSwitch("a"), tp.AddSwitch("b")
	fws := []topo.NodeID{tp.AddNF("fw1", policy.StatefulFW), tp.AddNF("fw2", policy.StatefulFW)}
	for _, fw := range fws {
		for _, l := range [][2]topo.NodeID{{a, fw}, {fw, b}} {
			if err := tp.AddLink(l[0], l[1], 1000); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tp.AddEndpoint("c1", a, "C"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("srv", b, "S"); err != nil {
		t.Fatal(err)
	}
	g := policy.NewGraph("g")
	g.AddEdge(policy.Edge{Src: "C", Dst: "S", Default: true, Chain: policy.Chain{policy.StatefulFW},
		QoS: policy.QoS{BandwidthMbps: 10}})
	conf, err := core.New(tp, composeWriters(t, g), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	live := start(t, conf, nil)
	var state store.State
	if err := json.Unmarshal([]byte(marshalState(t, live.State())), &state); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&state, core.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var used topo.NodeID = -1
	for _, fw := range fws {
		if slices.Contains(live.Current().Assignments[0].Path.Nodes, fw) {
			used = fw
		}
	}
	if used < 0 {
		t.Fatalf("the flow crosses no firewall: %v", live.Current().Assignments)
	}
	for name, r := range map[string]*Runtime{"live": live, "restored": restored} {
		if err := r.FailLink(ctx, a, used); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := r.Metrics().NFStateTransfers; got != 1 {
			t.Errorf("%s: NFStateTransfers = %d after the flow moved firewalls, want 1", name, got)
		}
	}
}

// TestRestoreRecoversFailedMove moves an endpoint with a cancelled
// context on a journaled runtime: the move stands, nothing installs, and
// the prior result, still live, no longer passes the audit. The published
// classifier must show that, and recovery from the journal must come back
// to the same state, metrics included (a restore counts nothing), with the
// same audit findings rather than refuse it.
func TestRestoreRecoversFailedMove(t *testing.T) {
	conf, sw := chaosSetup(t)
	d := newDurableSide(t, "live", conf, core.Config{}, store.NewCrashFS(5), store.Options{})
	live := d.RT
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := live.MoveEndpoint(cancelled, "c1", sw["agg"]); err == nil {
		t.Fatal("a move with a cancelled context installed")
	}
	if ep, _ := live.topo.EndpointByName("c1"); ep.Attach != sw["agg"] {
		t.Fatalf("setup: c1 is attached at %d, want the move to stand at agg (%d)", ep.Attach, sw["agg"])
	}
	vs := live.Audit()
	if len(vs) == 0 {
		t.Fatal("the live audit is clean although c1 moved off the installed paths")
	}
	assertFastpathAgrees(t, live)
	want := marshalState(t, live.State())
	st2 := d.reopen(t)
	defer st2.Close()
	restored, err := Restore(st2.RecoveredState(), core.Config{}, st2)
	if err != nil {
		t.Fatalf("restoring the journaled state: %v", err)
	}
	if got := marshalState(t, restored.State()); got != want {
		t.Errorf("restored state differs from the live one:\n%s\n%s", got, want)
	}
	if got := restored.Audit(); fmt.Sprint(got) != fmt.Sprint(vs) {
		t.Errorf("restored audit %v, live audit %v", got, vs)
	}
	assertFastpathAgrees(t, restored)
}
