package dataplane_test

import (
	"fmt"
	"math/rand"
	"testing"

	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/topo"
)

// fuzzProtos is the protocol alphabet for random classifiers and probes;
// it mixes the wildcard spellings ("" and Any), concrete protocols, and one
// the classifier constants don't know.
var fuzzProtos = []policy.Protocol{"", policy.Any, policy.TCP, policy.UDP, "icmp"}

// fuzzPorts is the port alphabet for random classifiers.
var fuzzPorts = []int{22, 53, 80, 443, 8080}

// buildFuzzNet derives a random topology and installed rule set from the
// fuzz arguments: 2-8 switches in a ring with random chords, an NF box, 2-6
// endpoints on random switches, and up to nRules random rules — arbitrary
// priorities in a narrow band (maximizing tie collisions), random InPorts
// (HostPort-biased), and next hops that may dangle into nodes with no
// useful continuation, producing blackholes and loops on purpose.
func buildFuzzNet(t *testing.T, seed int64, nSw, nEp, nRules uint8) (*dataplane.Network, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tp := topo.NewTopology("fuzz")
	ns := 2 + int(nSw%7)
	for i := 0; i < ns; i++ {
		tp.AddSwitch(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < ns; i++ {
		if err := tp.AddLink(topo.NodeID(i), topo.NodeID((i+1)%ns), 100); err != nil && ns > 2 {
			t.Fatal(err)
		}
	}
	for i := 0; i < ns/2; i++ {
		a, b := topo.NodeID(rng.Intn(ns)), topo.NodeID(rng.Intn(ns))
		if a != b {
			_ = tp.AddLink(a, b, 100) // duplicate chords are fine to skip
		}
	}
	nf := tp.AddNF("fw", policy.Firewall)
	if err := tp.AddLink(nf, topo.NodeID(rng.Intn(ns)), 100); err != nil {
		t.Fatal(err)
	}
	nodes := make([]topo.NodeID, 0, ns+1)
	for _, n := range tp.Nodes {
		nodes = append(nodes, n.ID)
	}

	ne := 2 + int(nEp%5)
	names := make([]string, ne)
	for i := range names {
		names[i] = fmt.Sprintf("e%d", i)
		if err := tp.AddEndpoint(names[i], topo.NodeID(rng.Intn(ns)), "L"); err != nil {
			t.Fatal(err)
		}
	}

	randClassifier := func() policy.Classifier {
		c := policy.Classifier{Proto: fuzzProtos[rng.Intn(len(fuzzProtos))]}
		for _, p := range fuzzPorts {
			if rng.Intn(4) == 0 {
				c.Ports = append(c.Ports, p)
			}
		}
		return c
	}
	// Dedup by Key like a real table: a duplicate key is an update, and
	// PlanUpdate's diff would otherwise see the same slot twice.
	byKey := map[string]dataplane.Rule{}
	for i := 0; i < int(nRules); i++ {
		inPort := dataplane.HostPort
		if rng.Intn(5) < 2 {
			inPort = nodes[rng.Intn(len(nodes))]
		}
		r := dataplane.Rule{
			Switch:    nodes[rng.Intn(len(nodes))],
			Src:       names[rng.Intn(ne)],
			Dst:       names[rng.Intn(ne)],
			Match:     randClassifier(),
			NextHop:   nodes[rng.Intn(len(nodes))],
			InPort:    inPort,
			QueueMbps: float64(rng.Intn(3)) * 10,
			Priority:  rng.Intn(3),
		}
		byKey[r.Key()] = r
	}
	rules := make([]dataplane.Rule, 0, len(byKey))
	for _, r := range byKey {
		rules = append(rules, r)
	}
	n := dataplane.NewNetwork(tp)
	if err := n.ApplyPlan(n.PlanUpdate(rules)); err != nil {
		t.Fatalf("installing fuzz rules: %v", err)
	}
	return n, names
}

// FuzzCompiledLookup is the differential fuzzer holding the compiled fast
// path to byte equality with the interpreted walk: for every endpoint pair
// (plus a ghost name and self-flows) and a probe grid spanning mentioned
// and unmentioned (proto, port) classes, paths and error strings must be
// identical. Each compiled outcome is itself one Lookup call, so what this
// checks is the rest of the compiler: that the class partition puts probes
// that walk alike into one class, that the outcome dedup merges only equal
// results, and that the indexing finds the right cell.
func FuzzCompiledLookup(f *testing.F) {
	// Pinned regression seeds: tiny net (2 switches), dense rule sets with
	// heavy priority-tie collisions, rule-free nets (interning only),
	// many-endpoint low-rule shapes, and a ring with chords big enough for
	// multi-hop loops. Keep any seed that ever exposed a divergence.
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint16(80))
	f.Add(int64(2), uint8(3), uint8(2), uint8(40), uint16(443))
	f.Add(int64(7), uint8(6), uint8(4), uint8(255), uint16(53))
	f.Add(int64(42), uint8(1), uint8(1), uint8(12), uint16(8080))
	f.Add(int64(-9000), uint8(4), uint8(3), uint8(90), uint16(1))
	f.Add(int64(1234567), uint8(5), uint8(0), uint8(200), uint16(65535))
	f.Add(int64(99), uint8(2), uint8(4), uint8(7), uint16(22))

	f.Fuzz(func(t *testing.T, seed int64, nSw, nEp, nRules uint8, probePort uint16) {
		n, names := buildFuzzNet(t, seed, nSw, nEp, nRules)
		c := n.Recompile()

		probeEPs := append(append([]string{}, names...), "ghost")
		ports := []int{22, 80, 443, 7, int(probePort), -1}
		for _, src := range probeEPs {
			for _, dst := range probeEPs {
				for _, proto := range fuzzProtos {
					for _, port := range ports {
						wi, erri := n.Lookup(src, dst, proto, port)
						wc, errc := c.Lookup(src, dst, proto, port)
						if fmt.Sprint(wi) != fmt.Sprint([]topo.NodeID(wc)) {
							t.Fatalf("divergence %s->%s %q/%d: interpreted path %v, compiled %v",
								src, dst, proto, port, wi, wc)
						}
						es := func(e error) string {
							if e == nil {
								return ""
							}
							return e.Error()
						}
						if es(erri) != es(errc) {
							t.Fatalf("divergence %s->%s %q/%d: interpreted err %q, compiled %q",
								src, dst, proto, port, es(erri), es(errc))
						}
					}
				}
			}
		}
	})
}
