package dataplane_test

import (
	"testing"

	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/topo"
)

// Sinks defeat dead-code elimination of the measured lookups.
var (
	sinkPath dataplane.Path
	sinkErr  error
)

// TestCompiledLookupZeroAllocs is the zero-alloc guarantee as a test, not a
// hope: steady-state compiled lookups — known endpoints, installed flow,
// both the delivered and the precompiled-error case — must not allocate.
// januslint's hotalloc polices the same property statically via the
// //janus:hotpath annotation on Lookup.
func TestCompiledLookupZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	tp, ids := stick(t)
	n := dataplane.NewNetwork(tp)
	install(t, n, []dataplane.Rule{
		{Switch: ids["s0"], Src: "cl", Dst: "srv", Match: policy.Classifier{Proto: policy.TCP, Ports: []int{80, 443}}, NextHop: ids["s1"], InPort: dataplane.HostPort, QueueMbps: 10, Priority: 2},
		{Switch: ids["s1"], Src: "cl", Dst: "srv", Match: policy.Classifier{Proto: policy.TCP, Ports: []int{80, 443}}, NextHop: ids["s2"], InPort: ids["s0"], QueueMbps: 10, Priority: 2},
		{Switch: ids["s0"], Src: "cl", Dst: "lone", Match: policy.Classifier{Proto: policy.UDP}, NextHop: ids["s1"], InPort: dataplane.HostPort, Priority: 1},
	})
	c := n.Fastpath()

	cases := []struct {
		name  string
		src   string
		dst   string
		proto policy.Protocol
		port  int
	}{
		{"delivered", "cl", "srv", policy.TCP, 80},
		{"other-port-class", "cl", "srv", policy.TCP, 12345},
		{"other-proto-class", "cl", "srv", "icmp", 80},
		{"precompiled-blackhole", "cl", "lone", policy.UDP, 53},
		{"ruleless-co-attached", "srv", "lone", policy.TCP, 80},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(200, func() {
				sinkPath, sinkErr = c.Lookup(tc.src, tc.dst, tc.proto, tc.port)
			}); avg != 0 {
				t.Errorf("Lookup allocates %.1f per run, want exactly 0", avg)
			}
		})
	}

	// FastLookup through the Network adds only the atomic load.
	if avg := testing.AllocsPerRun(200, func() {
		sinkPath, sinkErr = n.FastLookup("cl", "srv", policy.TCP, 443)
	}); avg != 0 {
		t.Errorf("FastLookup allocates %.1f per run, want exactly 0", avg)
	}

	// The audit's isolation read of a pair whose classes all blackhole
	// walks the decisions without allocating.
	cl, _ := c.Endpoint("cl")
	lone, _ := c.Endpoint("lone")
	if avg := testing.AllocsPerRun(200, func() {
		_, sinkPath, sinkErr = c.LookupAnyClass(cl, lone, policy.UDP, 53)
	}); avg != 0 {
		t.Errorf("LookupAnyClass allocates %.1f per run, want exactly 0", avg)
	}
}

// BenchmarkFlowArrival compares interpreted per-hop walking with the
// compiled fast path on the same installed rule set; the benchmark ledger's
// dataplane.lookup_ns and fastpath.lookup_ns measure the same thing at scale.
func BenchmarkFlowArrival(b *testing.B) {
	tp, ids := benchStick(b)
	n := dataplane.NewNetwork(tp)
	rules := []dataplane.Rule{
		{Switch: ids["s0"], Src: "cl", Dst: "srv", Match: policy.Classifier{Proto: policy.TCP, Ports: []int{80, 443}}, NextHop: ids["s1"], InPort: dataplane.HostPort, QueueMbps: 10, Priority: 2},
		{Switch: ids["s1"], Src: "cl", Dst: "srv", Match: policy.Classifier{Proto: policy.TCP, Ports: []int{80, 443}}, NextHop: ids["s2"], InPort: ids["s0"], QueueMbps: 10, Priority: 2},
		{Switch: ids["s0"], Src: "cl", Dst: "srv", Match: policy.Classifier{}, NextHop: ids["s1"], InPort: dataplane.HostPort, Priority: 1},
		{Switch: ids["s1"], Src: "cl", Dst: "srv", Match: policy.Classifier{}, NextHop: ids["s2"], InPort: ids["s0"], Priority: 1},
	}
	install(b, n, rules)
	c := n.Fastpath()

	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w, err := n.Lookup("cl", "srv", policy.TCP, 80)
			if err != nil {
				b.Fatal(err)
			}
			sinkPath = dataplane.Path(w)
		}
	})
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkPath, sinkErr = c.Lookup("cl", "srv", policy.TCP, 80)
			if sinkErr != nil {
				b.Fatal(sinkErr)
			}
		}
	})
}

// benchStick duplicates stick for *testing.B (stick takes *testing.T).
func benchStick(b *testing.B) (*topo.Topology, map[string]topo.NodeID) {
	b.Helper()
	tp := topo.NewTopology("stick")
	ids := map[string]topo.NodeID{
		"s0": tp.AddSwitch("s0"),
		"s1": tp.AddSwitch("s1"),
		"s2": tp.AddSwitch("s2"),
	}
	for _, l := range [][2]string{{"s0", "s1"}, {"s1", "s2"}} {
		if err := tp.AddLink(ids[l[0]], ids[l[1]], 100); err != nil {
			b.Fatal(err)
		}
	}
	if err := tp.AddEndpoint("cl", ids["s0"], "C"); err != nil {
		b.Fatal(err)
	}
	if err := tp.AddEndpoint("srv", ids["s2"], "S"); err != nil {
		b.Fatal(err)
	}
	return tp, ids
}
