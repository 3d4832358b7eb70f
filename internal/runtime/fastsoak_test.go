package runtime

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/topo"
)

// TestFastpathSwapSoak is the swap-under-load race soak (run it under
// -race: `make fastsoak` does): reader goroutines hammer compiled lookups
// while a writer drives reconfigurations, rollback-prone mutations, and
// escalations through the runtime, each of which atomically swaps the
// compiled structure. Invariants:
//
//   - the generation counter is monotone: +1 per recompile on the writer
//     side, never decreasing as seen by any reader;
//   - no torn reads: every (probe, observed result) a reader records is
//     EXACTLY what the interpreted dataplane produces for the rule set of
//     the generation that served it — verified post-hoc by replaying every
//     generation's journaled rule set on a fresh network.
func TestFastpathSwapSoak(t *testing.T) {
	conf, sw := chaosSetup(t)
	rt, err := New(context.Background(), conf)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

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
	record := func(gen uint64, rules []dataplane.Rule) {
		tj, err := json.Marshal(rt.topo)
		if err != nil {
			t.Errorf("marshaling topo at generation %d: %v", gen, err)
			return
		}
		genMu.Lock()
		defer genMu.Unlock()
		if gen != lastGen+1 {
			t.Errorf("writer-side generation not monotone: %d after %d", gen, lastGen)
		}
		lastGen = gen
		states[gen] = genState{rules: rules, topoJSON: tj}
	}
	// The bring-up install already compiled generation 1; journal it by
	// hand, then observe every subsequent recompile.
	c0 := rt.Network().Fastpath()
	if c0 == nil || c0.Generation() != 1 {
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
	type obsVal struct {
		path string
		err  string
	}

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

	// Writer: a seeded mix of escalation triggers (cheap swaps: no solve),
	// endpoint moves and hour advances (full reconfigurations), and a link
	// flap. Event errors are tolerated — a failed install rolls back and
	// recompiles, which is exactly a swap worth soaking.
	rng := rand.New(rand.NewSource(7))
	switches := []topo.NodeID{sw["e1"], sw["e2"], sw["agg"], sw["core1"], sw["core2"]}
	clients := []string{"c1", "c2"}
	linkDown := false
	for i := 0; i < 36; i++ {
		var ev Event
		switch roll := rng.Intn(10); {
		case roll < 3:
			ev = Event{Kind: EventCounter, Src: clients[rng.Intn(2)], Dst: "web", Event: policy.FailedConnections, Delta: 2}
		case roll < 6:
			ev = Event{Kind: EventMove, Endpoint: clients[rng.Intn(2)], To: switches[rng.Intn(len(switches))]}
		case roll < 8:
			ev = Event{Kind: EventHour, Hour: (rt.Hour() + 1 + rng.Intn(5)) % policy.HoursPerDay}
		case linkDown:
			ev = Event{Kind: EventLinkRestore, From: sw["core1"], To: sw["core2"]}
		default:
			ev = Event{Kind: EventLinkFail, From: sw["core1"], To: sw["core2"]}
		}
		if rt.Apply(ctx, ev) == nil && (ev.Kind == EventLinkFail || ev.Kind == EventLinkRestore) {
			linkDown = ev.Kind == EventLinkFail
		}
	}
	// Don't stop until every reader has made real progress: on a fast
	// machine the writer's 36 events can finish before the scheduler ever
	// runs the readers, and a soak with zero observations proves nothing.
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
		t.Fatalf("soak produced only %d generations; the writer mix should swap far more", finalGen)
	}

	// Post-hoc audit: rebuild each generation's dataplane from its journaled
	// topology and rules, and hold every reader observation for that
	// generation to the interpreted reference. Any mismatch means a reader
	// saw a torn or stale-mixed structure.
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
}
