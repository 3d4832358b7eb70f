package dataplane_test

import (
	"fmt"
	"testing"

	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/topo"
)

// stick builds the NF-on-a-stick shape that exercises InPort matching: two
// endpoint switches bridged by a core switch with a firewall hanging off it.
//
//	cl@s0 -- s1 -- s2@srv
//	          |
//	          fw
func stick(t *testing.T) (*topo.Topology, map[string]topo.NodeID) {
	t.Helper()
	tp := topo.NewTopology("stick")
	ids := map[string]topo.NodeID{
		"s0": tp.AddSwitch("s0"),
		"s1": tp.AddSwitch("s1"),
		"s2": tp.AddSwitch("s2"),
	}
	ids["fw"] = tp.AddNF("fw", policy.Firewall)
	for _, l := range [][2]string{{"s0", "s1"}, {"s1", "s2"}, {"s1", "fw"}} {
		if err := tp.AddLink(ids[l[0]], ids[l[1]], 100); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.AddEndpoint("cl", ids["s0"], "C"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("srv", ids["s2"], "S"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("lone", ids["s2"], "L"); err != nil {
		t.Fatal(err)
	}
	return tp, ids
}

// install applies the rules and recompiles, failing the test on error.
func install(t testing.TB, n *dataplane.Network, rules []dataplane.Rule) {
	t.Helper()
	if err := n.ApplyPlan(n.PlanUpdate(rules)); err != nil {
		t.Fatal(err)
	}
	n.Recompile()
}

// assertSame probes both lookups with one tuple and requires identical
// paths and identical error text.
func assertSame(t *testing.T, n *dataplane.Network, c *dataplane.Compiled, src, dst string, proto policy.Protocol, port int) {
	t.Helper()
	wi, erri := n.Lookup(src, dst, proto, port)
	wc, errc := c.Lookup(src, dst, proto, port)
	if fmt.Sprint(wi) != fmt.Sprint([]topo.NodeID(wc)) {
		t.Errorf("%s->%s %s/%d: interpreted path %v, compiled %v", src, dst, proto, port, wi, wc)
	}
	es := func(e error) string {
		if e == nil {
			return ""
		}
		return e.Error()
	}
	if es(erri) != es(errc) {
		t.Errorf("%s->%s %s/%d: interpreted err %q, compiled %q", src, dst, proto, port, es(erri), es(errc))
	}
}

// grid cross-probes every endpoint pair (plus a ghost endpoint) over a
// protocol/port grid covering mentioned and unmentioned classes.
func grid(t *testing.T, n *dataplane.Network, c *dataplane.Compiled) {
	t.Helper()
	eps := []string{"cl", "srv", "lone", "ghost"}
	for _, src := range eps {
		for _, dst := range eps {
			for _, proto := range []policy.Protocol{policy.TCP, policy.UDP, policy.Any, "icmp", ""} {
				for _, port := range []int{22, 53, 80, 443, 7, -1} {
					assertSame(t, n, c, src, dst, proto, port)
				}
			}
		}
	}
}

// TestCompiledMatchesInterpreted installs a rule set with an NF detour
// (InPort-differentiated forwarding on s1), a priority-shadowed drop, a
// reverse flow, and a blackholed flow, then cross-checks the whole probe
// grid.
func TestCompiledMatchesInterpreted(t *testing.T) {
	tp, ids := stick(t)
	n := dataplane.NewNetwork(tp)
	cls := func(proto policy.Protocol, ports ...int) policy.Classifier {
		return policy.Classifier{Proto: proto, Ports: ports}
	}
	rules := []dataplane.Rule{
		// cl->srv tcp/80 takes the firewall detour: s0 -> s1 -> fw -> s1 -> s2.
		{Switch: ids["s0"], Src: "cl", Dst: "srv", Match: cls(policy.TCP, 80), NextHop: ids["s1"], InPort: dataplane.HostPort, QueueMbps: 10, Priority: 2},
		{Switch: ids["s1"], Src: "cl", Dst: "srv", Match: cls(policy.TCP, 80), NextHop: ids["fw"], InPort: ids["s0"], Priority: 2},
		{Switch: ids["fw"], Src: "cl", Dst: "srv", Match: cls(policy.TCP, 80), NextHop: ids["s1"], InPort: ids["s1"], Priority: 2},
		{Switch: ids["s1"], Src: "cl", Dst: "srv", Match: cls(policy.TCP, 80), NextHop: ids["s2"], InPort: ids["fw"], Priority: 2},
		// Everything else cl->srv goes direct.
		{Switch: ids["s0"], Src: "cl", Dst: "srv", Match: cls(policy.Any), NextHop: ids["s1"], InPort: dataplane.HostPort, Priority: 1},
		{Switch: ids["s1"], Src: "cl", Dst: "srv", Match: cls(policy.Any), NextHop: ids["s2"], InPort: ids["s0"], Priority: 1},
		// srv->cl reverse path, udp only: other protocols blackhole at s2.
		{Switch: ids["s2"], Src: "srv", Dst: "cl", Match: cls(policy.UDP), NextHop: ids["s1"], InPort: dataplane.HostPort, Priority: 1},
		{Switch: ids["s1"], Src: "srv", Dst: "cl", Match: cls(policy.UDP), NextHop: ids["s0"], InPort: ids["s2"], Priority: 1},
		// cl->lone forwards off s0 but dead-ends at s1.
		{Switch: ids["s0"], Src: "cl", Dst: "lone", Match: cls(policy.Any), NextHop: ids["s1"], InPort: dataplane.HostPort, Priority: 1},
	}
	install(t, n, rules)
	c := n.Fastpath()
	if c == nil {
		t.Fatal("Apply should have compiled a fast path")
	}
	grid(t, n, c)

	// The detour must actually be in the compiled path.
	p, err := c.Lookup("cl", "srv", policy.TCP, 80)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint([]topo.NodeID{ids["s0"], ids["s1"], ids["fw"], ids["s1"], ids["s2"]})
	if fmt.Sprint([]topo.NodeID(p)) != want {
		t.Fatalf("detour path = %v, want %s", p, want)
	}
}

// TestCompiledLoopError forces a forwarding loop and checks the compiled
// error (including the truncated walk) matches the interpreter's.
func TestCompiledLoopError(t *testing.T) {
	tp, ids := stick(t)
	n := dataplane.NewNetwork(tp)
	rules := []dataplane.Rule{
		{Switch: ids["s0"], Src: "cl", Dst: "srv", Match: policy.Classifier{}, NextHop: ids["s1"], InPort: dataplane.HostPort, Priority: 1},
		{Switch: ids["s1"], Src: "cl", Dst: "srv", Match: policy.Classifier{}, NextHop: ids["s0"], InPort: ids["s0"], Priority: 1},
		{Switch: ids["s0"], Src: "cl", Dst: "srv", Match: policy.Classifier{}, NextHop: ids["s1"], InPort: ids["s1"], Priority: 1},
	}
	install(t, n, rules)
	assertSame(t, n, n.Fastpath(), "cl", "srv", policy.TCP, 80)
	if _, err := n.Fastpath().Lookup("cl", "srv", policy.TCP, 80); err == nil {
		t.Fatal("loop should be an error")
	}
}

// TestCompiledGenerations checks a new network serves an uncounted
// generation 0, that the generation advances by one per publish and is
// stamped on the published structure, and that a compile left unpublished
// is counted but takes no generation.
func TestCompiledGenerations(t *testing.T) {
	tp, _ := stick(t)
	n := dataplane.NewNetwork(tp)
	if c := n.Fastpath(); c == nil || c.Generation() != 0 {
		t.Fatalf("a new network should serve generation 0, got %v", c)
	}
	if st := n.FastpathStats(); st.Generation != 0 || st.Compiles != 0 {
		t.Fatalf("stats = %+v, want generation 0, compiles 0", st)
	}
	for want := uint64(1); want <= 3; want++ {
		c := n.Recompile()
		if c.Generation() != want {
			t.Fatalf("generation = %d, want %d", c.Generation(), want)
		}
		if n.Fastpath() != c {
			t.Fatal("Recompile must publish the structure it returns")
		}
	}
	unpublished := n.Compile()
	if n.Fastpath() == unpublished || unpublished.Generation() != 0 {
		t.Fatal("Compile must not publish")
	}
	st := n.FastpathStats()
	if st.Generation != 3 || st.Compiles != 4 {
		t.Fatalf("stats = %+v, want generation 3, compiles 4", st)
	}
	n.Publish(unpublished)
	if n.Fastpath() != unpublished || unpublished.Generation() != 4 {
		t.Fatalf("Publish stamped generation %d, want 4", unpublished.Generation())
	}
}

// TestFastLookupFallback checks FastLookup serves the classifier a new
// network is created with — every cross-switch probe blackholes — until a
// recompile publishes the installed rules: it has no interpreted fallback.
func TestFastLookupFallback(t *testing.T) {
	tp, ids := stick(t)
	n := dataplane.NewNetwork(tp)
	rules := []dataplane.Rule{
		{Switch: ids["s0"], Src: "cl", Dst: "srv", Match: policy.Classifier{}, NextHop: ids["s1"], InPort: dataplane.HostPort, Priority: 1},
		{Switch: ids["s1"], Src: "cl", Dst: "srv", Match: policy.Classifier{}, NextHop: ids["s2"], InPort: ids["s0"], Priority: 1},
	}
	// ApplyPlan alone does not recompile: generation 0 serves.
	if err := n.ApplyPlan(n.PlanUpdate(rules)); err != nil {
		t.Fatal(err)
	}
	p, err := n.FastLookup("cl", "srv", policy.TCP, 80)
	want := fmt.Sprintf("dataplane: blackhole at switch %d for cl->srv", ids["s0"])
	if err == nil || err.Error() != want || fmt.Sprint(p) != fmt.Sprint([]topo.NodeID{ids["s0"]}) {
		t.Fatalf("new network FastLookup = %v, %v; want [%d], %s", p, err, ids["s0"], want)
	}
	n.Recompile()
	p, err = n.FastLookup("cl", "srv", policy.TCP, 80)
	if err != nil || fmt.Sprint(p) != fmt.Sprint([]topo.NodeID{ids["s0"], ids["s1"], ids["s2"]}) {
		t.Fatalf("compiled FastLookup = %v, %v", p, err)
	}
}

// TestCompiledUnknownEndpoint checks both sides of the name check.
func TestCompiledUnknownEndpoint(t *testing.T) {
	tp, _ := stick(t)
	n := dataplane.NewNetwork(tp)
	c := n.Recompile()
	for _, pair := range [][2]string{{"ghost", "srv"}, {"cl", "ghost"}} {
		assertSame(t, n, c, pair[0], pair[1], policy.TCP, 80)
		if _, err := c.Lookup(pair[0], pair[1], policy.TCP, 80); err == nil {
			t.Fatalf("%v should be unknown", pair)
		}
	}
}

// TestPriorityTieCompiledAgreement installs two equal-priority overlapping
// rules whose winners diverge observably (different next hops) and checks
// interpreter and compiler pick the same — the specific classifier — on
// every call.
func TestPriorityTieCompiledAgreement(t *testing.T) {
	tp, ids := stick(t)
	n := dataplane.NewNetwork(tp)
	install(t, n, []dataplane.Rule{
		// Wildcard sends tcp/80 into a blackhole at s1; the tcp/80-specific
		// rule delivers. Equal priority: specificity must win, always.
		{Switch: ids["s0"], Src: "cl", Dst: "srv", Match: policy.Classifier{}, NextHop: ids["s1"], InPort: dataplane.HostPort, Priority: 1},
		{Switch: ids["s1"], Src: "cl", Dst: "srv", Match: policy.Classifier{Proto: policy.TCP, Ports: []int{80}}, NextHop: ids["s2"], InPort: ids["s0"], Priority: 1},
		{Switch: ids["s1"], Src: "cl", Dst: "srv", Match: policy.Classifier{Proto: policy.TCP}, NextHop: ids["s0"], InPort: ids["s0"], Priority: 1},
	})
	c := n.Fastpath()
	for i := 0; i < 50; i++ {
		wi, erri := n.Lookup("cl", "srv", policy.TCP, 80)
		if erri != nil {
			t.Fatalf("iteration %d: interpreted err %v", i, erri)
		}
		if fmt.Sprint(wi) != fmt.Sprint([]topo.NodeID{ids["s0"], ids["s1"], ids["s2"]}) {
			t.Fatalf("iteration %d: tie broke toward the wrong rule: %v", i, wi)
		}
	}
	assertSame(t, n, c, "cl", "srv", policy.TCP, 80)
	assertSame(t, n, c, "cl", "srv", policy.TCP, 22)
}

// TestLookupAnyClass checks the audit's isolation read: a probe whose
// class delivers answers itself, and one whose class does not names the
// first class of the pair's entry that delivers, by its protocol and port
// ("other" for the unmentioned class); a pair whose classes all blackhole,
// or that has no entry, answers with the probe's blackhole.
func TestLookupAnyClass(t *testing.T) {
	tp, ids := stick(t)
	n := dataplane.NewNetwork(tp)
	install(t, n, []dataplane.Rule{
		// cl->srv delivers only on udp, any port; tcp/53 is mentioned and
		// dead-ends at s1.
		{Switch: ids["s0"], Src: "cl", Dst: "srv", Match: policy.Classifier{Proto: policy.TCP, Ports: []int{53}}, NextHop: ids["s1"], InPort: dataplane.HostPort, Priority: 2},
		{Switch: ids["s0"], Src: "cl", Dst: "srv", Match: policy.Classifier{Proto: policy.UDP}, NextHop: ids["s1"], InPort: dataplane.HostPort, Priority: 1},
		{Switch: ids["s1"], Src: "cl", Dst: "srv", Match: policy.Classifier{Proto: policy.UDP}, NextHop: ids["s2"], InPort: ids["s0"], Priority: 1},
		// cl->lone forwards off s0 but dead-ends at s1 on every class.
		{Switch: ids["s0"], Src: "cl", Dst: "lone", Match: policy.Classifier{}, NextHop: ids["s1"], InPort: dataplane.HostPort, Priority: 1},
	})
	c := n.Fastpath()
	id := func(name string) int32 {
		t.Helper()
		v, ok := c.Endpoint(name)
		if !ok {
			t.Fatalf("%s not interned", name)
		}
		return v
	}
	delivered := fmt.Sprint([]topo.NodeID{ids["s0"], ids["s1"], ids["s2"]})
	for _, tc := range []struct {
		proto policy.Protocol
		port  int
		class string
	}{{policy.TCP, 80, "udp/53"}, {policy.UDP, 53, ""}, {policy.UDP, 9, ""}} {
		class, p, err := c.LookupAnyClass(id("cl"), id("srv"), tc.proto, tc.port)
		if err != nil || class != tc.class || fmt.Sprint(p) != delivered {
			t.Errorf("cl->srv %s/%d = %q %v %v, want %q over s0 s1 s2", tc.proto, tc.port, class, p, err, tc.class)
		}
	}
	for _, pair := range [][2]string{{"cl", "lone"}, {"srv", "cl"}} {
		wantPath, wantErr := c.Lookup(pair[0], pair[1], policy.TCP, 80)
		class, p, err := c.LookupAnyClass(id(pair[0]), id(pair[1]), policy.TCP, 80)
		if err == nil || class != "" || fmt.Sprint(p, err) != fmt.Sprint(wantPath, wantErr) {
			t.Errorf("%v = %q %v %v, want the probe's blackhole %v %v", pair, class, p, err, wantPath, wantErr)
		}
	}
}
