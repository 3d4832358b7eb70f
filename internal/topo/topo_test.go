package topo

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"

	"janus/internal/policy"
)

// fig2 builds the example topology of Fig 2: six switches, two FW boxes,
// with the 50 Mbps bottleneck on s2-s3.
func fig2() (*Topology, []NodeID) {
	t := NewTopology("fig2")
	s := make([]NodeID, 6)
	for i := range s {
		s[i] = t.AddSwitch("")
	}
	mustAdd := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	mustAdd(t.AddLink(s[0], s[1], 100)) // s1-s2
	mustAdd(t.AddLink(s[1], s[2], 50))  // s2-s3 bottleneck
	mustAdd(t.AddLink(s[2], s[4], 100)) // s3-s5
	mustAdd(t.AddLink(s[0], s[5], 100)) // s1-s6
	mustAdd(t.AddLink(s[5], s[3], 100)) // s6-s4
	mustAdd(t.AddLink(s[3], s[2], 100)) // s4-s3
	return t, s
}

func TestTopologyBasics(t *testing.T) {
	tp, s := fig2()
	if err := tp.Validate(); err != nil {
		t.Fatalf("fig2 should validate: %v", err)
	}
	c, ok := tp.LinkCapacity(s[1], s[2])
	if !ok || c != 50 {
		t.Errorf("cap(s2,s3) = %v, %v; want 50", c, ok)
	}
	if _, ok := tp.LinkCapacity(s[0], s[2]); ok {
		t.Error("s1-s3 link should not exist")
	}
	nbr := tp.Neighbors(s[0])
	if len(nbr) != 2 {
		t.Errorf("s1 neighbors = %v, want 2", nbr)
	}
}

func TestAddLinkErrors(t *testing.T) {
	tp := NewTopology("t")
	a := tp.AddSwitch("")
	if err := tp.AddLink(a, a, 10); err == nil {
		t.Error("self link should fail")
	}
	if err := tp.AddLink(a, NodeID(99), 10); err == nil {
		t.Error("link to missing node should fail")
	}
	b := tp.AddSwitch("")
	if err := tp.AddLink(a, b, 0); err == nil {
		t.Error("zero capacity should fail")
	}
}

func TestEndpoints(t *testing.T) {
	tp, s := fig2()
	if err := tp.AddEndpoint("m1", s[0], "Nml", "Mktg"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("m2", s[0], "Nml", "Mktg"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("w1", s[2], "Nml", "Web"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("m1", s[1]); err == nil {
		t.Error("duplicate endpoint should fail")
	}
	got := tp.EndpointsMatching(policy.NewEPG("Mktg", "Nml", "Mktg"))
	if len(got) != 2 || got[0] != "m1" || got[1] != "m2" {
		t.Errorf("EndpointsMatching = %v, want [m1 m2]", got)
	}
	// Mobility.
	if err := tp.MoveEndpoint("m1", s[3]); err != nil {
		t.Fatal(err)
	}
	ep, ok := tp.EndpointByName("m1")
	if !ok || ep.Attach != s[3] {
		t.Errorf("after move, m1 at %v, want %v", ep.Attach, s[3])
	}
	// Membership change.
	if err := tp.RelabelEndpoint("m1", "Nml", "IT"); err != nil {
		t.Fatal(err)
	}
	got = tp.EndpointsMatching(policy.NewEPG("Mktg", "Nml", "Mktg"))
	if len(got) != 1 || got[0] != "m2" {
		t.Errorf("after relabel, matching = %v, want [m2]", got)
	}
	if err := tp.MoveEndpoint("ghost", s[0]); err == nil {
		t.Error("moving unknown endpoint should fail")
	}
}

func TestEndpointAttachToNFFails(t *testing.T) {
	tp := NewTopology("t")
	tp.AddSwitch("")
	nf := tp.AddNF("", policy.Firewall)
	if err := tp.AddEndpoint("x", nf); err == nil {
		t.Error("attaching endpoint to NF box should fail")
	}
}

func TestValidateDisconnected(t *testing.T) {
	tp := NewTopology("t")
	tp.AddSwitch("")
	tp.AddSwitch("")
	if err := tp.Validate(); err == nil {
		t.Error("disconnected topology should fail validation")
	}
}

func TestNodesOfKind(t *testing.T) {
	tp := NewTopology("t")
	s := tp.AddSwitch("")
	fw := tp.AddNF("", policy.Firewall)
	ids := tp.AddNF("", policy.LightIDS)
	if err := tp.AddLink(s, fw, 100); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddLink(s, ids, 100); err != nil {
		t.Fatal(err)
	}
	if got := tp.NodesOfKind(NFBox, policy.Firewall); len(got) != 1 || got[0] != fw {
		t.Errorf("NodesOfKind(FW) = %v", got)
	}
	if got := tp.NodesOfKind(NFBox, ""); len(got) != 2 {
		t.Errorf("NodesOfKind(all NFs) = %v", got)
	}
	if got := tp.NodesOfKind(Switch, ""); len(got) != 1 {
		t.Errorf("NodesOfKind(switch) = %v", got)
	}
}

func TestZooTopologies(t *testing.T) {
	for _, spec := range ZooSpecs {
		tp, err := Zoo(spec.Name)
		if err != nil {
			t.Fatalf("Zoo(%s): %v", spec.Name, err)
		}
		if got := len(tp.Nodes); got != spec.Nodes {
			t.Errorf("%s: %d nodes, want %d", spec.Name, got, spec.Nodes)
		}
		if err := tp.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
	if _, err := Zoo("Nowhere"); err == nil {
		t.Error("unknown zoo name should fail")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic("x", 30, 7)
	b := Synthetic("x", 30, 7)
	if len(a.Links) != len(b.Links) {
		t.Fatal("same seed should give same topology")
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("link %d differs: %v vs %v", i, a.Links[i], b.Links[i])
		}
	}
	c := Synthetic("x", 30, 8)
	same := len(a.Links) == len(c.Links)
	if same {
		identical := true
		for i := range a.Links {
			if a.Links[i] != c.Links[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds should give different topologies")
		}
	}
}

// Property: every synthetic topology is connected and all capacities are
// from the expected set.
func TestSyntheticProperties(t *testing.T) {
	validCaps := map[float64]bool{100: true, 200: true, 500: true, 1000: true}
	prop := func(nRaw uint8, seed int64) bool {
		n := int(nRaw)%80 + 2
		tp := Synthetic("p", n, seed)
		if err := tp.Validate(); err != nil {
			return false
		}
		for _, l := range tp.Links {
			if !validCaps[l.Capacity] {
				return false
			}
		}
		return len(tp.Nodes) == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPlaceNFs(t *testing.T) {
	tp := Synthetic("t", 20, 1)
	rng := rand.New(rand.NewSource(2))
	kinds := []policy.NFKind{policy.Firewall, policy.LightIDS}
	if err := tp.PlaceNFs(rng, kinds, 0.2, 1000); err != nil {
		t.Fatal(err)
	}
	fw := tp.NodesOfKind(NFBox, policy.Firewall)
	ids := tp.NodesOfKind(NFBox, policy.LightIDS)
	if len(fw) != 4 || len(ids) != 4 { // 20% of 20 switches
		t.Errorf("placed %d FW, %d IDS; want 4 each", len(fw), len(ids))
	}
	if err := tp.Validate(); err != nil {
		t.Errorf("after PlaceNFs: %v", err)
	}
	// Every NF box must be attached to at least one switch.
	for _, nf := range append(fw, ids...) {
		if len(tp.Neighbors(nf)) == 0 {
			t.Errorf("NF %d has no links", nf)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tp, s := fig2()
	if err := tp.AddEndpoint("m1", s[0], "Mktg"); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tp)
	if err != nil {
		t.Fatal(err)
	}
	var back Topology
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != len(tp.Nodes) || len(back.Links) != len(tp.Links) || len(back.Endpoints) != 1 {
		t.Errorf("round trip mismatch")
	}
	c, ok := back.LinkCapacity(s[1], s[2])
	if !ok || c != 50 {
		t.Errorf("capacity lost in round trip: %v %v", c, ok)
	}
}

func TestJSONUnmarshalValidates(t *testing.T) {
	bad := []byte(`{"name":"x","nodes":[{"id":0,"name":"a","kind":0}],"links":[{"from":0,"to":5,"capacityMbps":10}]}`)
	var tp Topology
	if err := json.Unmarshal(bad, &tp); err == nil {
		t.Error("invalid topology JSON should fail")
	}
}

func TestRemoveLink(t *testing.T) {
	tp, s := fig2()
	if _, ok := tp.LinkCapacity(s[1], s[2]); !ok {
		t.Fatal("s2-s3 should exist")
	}
	if err := tp.RemoveLink(s[1], s[2]); err != nil {
		t.Fatal(err)
	}
	if _, ok := tp.LinkCapacity(s[1], s[2]); ok {
		t.Error("forward direction should be gone")
	}
	if _, ok := tp.LinkCapacity(s[2], s[1]); ok {
		t.Error("reverse direction should be gone")
	}
	if err := tp.RemoveLink(s[1], s[2]); err == nil {
		t.Error("removing twice should fail")
	}
	if err := tp.RemoveLink(s[0], s[2]); err == nil {
		t.Error("removing nonexistent link should fail")
	}
}
