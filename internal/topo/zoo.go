package topo

import (
	"fmt"
	"math/rand"
)

// The paper evaluates on Topology Zoo networks identified by name and node
// count: Ans(18), Agis(25), CrlNetServ(33), Cwix(36), Garr201008(55),
// Internode(66), Redbestel(84). The dataset is not bundled here, so Zoo
// builds deterministic synthetic ISP-like topologies with the published
// node counts: a ring backbone (ISP graphs are 2-connected cores) plus
// seeded chords and stub trees, with link capacities drawn from
// {100, 200, 500, 1000} Mbps. See DESIGN.md, "Substitutions".

// ZooSpec describes one named evaluation topology.
type ZooSpec struct {
	Name  string
	Nodes int
	Seed  int64
}

// ZooSpecs lists the evaluation topologies in paper order.
var ZooSpecs = []ZooSpec{
	{Name: "Ans", Nodes: 18, Seed: 18},
	{Name: "Agis", Nodes: 25, Seed: 25},
	{Name: "CrlNetServ", Nodes: 33, Seed: 33},
	{Name: "Cwix", Nodes: 36, Seed: 36},
	{Name: "Garr201008", Nodes: 55, Seed: 55},
	{Name: "Internode", Nodes: 66, Seed: 66},
	{Name: "Redbestel", Nodes: 84, Seed: 84},
}

// Zoo builds the named synthetic evaluation topology. The name matches
// case-sensitively against ZooSpecs.
func Zoo(name string) (*Topology, error) {
	for _, spec := range ZooSpecs {
		if spec.Name == name {
			return Synthetic(fmt.Sprintf("%s(%d)", spec.Name, spec.Nodes), spec.Nodes, spec.Seed), nil
		}
	}
	return nil, fmt.Errorf("topo: unknown zoo topology %q", name)
}

// MustZoo is Zoo, panicking on unknown names. Test and benchmark helper.
func MustZoo(name string) *Topology {
	t, err := Zoo(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Synthetic builds a deterministic ISP-like topology with n switches:
// a core ring over roughly 60% of the switches, chord links across the ring
// (average core degree ≈ 3, matching Zoo-style sparse ISP graphs), and the
// remaining switches attached as stubs to random core nodes.
func Synthetic(name string, n int, seed int64) *Topology {
	if n < 2 {
		n = 2
	}
	rng := rand.New(rand.NewSource(seed))
	t := NewTopology(name)
	for i := 0; i < n; i++ {
		t.AddSwitch("")
	}
	caps := []float64{100, 200, 500, 1000}
	pick := func() float64 { return caps[rng.Intn(len(caps))] }

	core := n * 6 / 10
	if core < 3 {
		core = min(3, n)
	}
	// Ring backbone.
	for i := 0; i < core; i++ {
		a, b := NodeID(i), NodeID((i+1)%core)
		if a == b {
			continue
		}
		mustLink(t, a, b, pick())
	}
	// Chords: one per three core nodes, avoiding duplicates.
	for i := 0; i < core/3; i++ {
		a := NodeID(rng.Intn(core))
		b := NodeID(rng.Intn(core))
		if a == b {
			continue
		}
		if _, exists := t.LinkCapacity(a, b); exists {
			continue
		}
		mustLink(t, a, b, pick())
	}
	// Stubs: remaining switches hang off one or two core nodes.
	for i := core; i < n; i++ {
		a := NodeID(rng.Intn(core))
		mustLink(t, NodeID(i), a, pick())
		if rng.Float64() < 0.3 {
			b := NodeID(rng.Intn(core))
			if b != a {
				if _, exists := t.LinkCapacity(NodeID(i), b); !exists {
					mustLink(t, NodeID(i), b, pick())
				}
			}
		}
	}
	return t
}

func mustLink(t *Topology, a, b NodeID, c float64) {
	if err := t.AddLink(a, b, c); err != nil {
		panic("topo: synthetic generator produced invalid link: " + err.Error())
	}
}
