// Package topo models the target network: switches, network-function boxes,
// endpoint hosts, and capacitated links (§5.1 input data). It also provides
// deterministic synthetic generators standing in for the Topology Zoo
// dataset used in the paper's evaluation (§7) — see DESIGN.md for the
// substitution rationale.
package topo

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"janus/internal/policy"
)

// NodeID identifies a node in the topology.
type NodeID int

// NodeKind distinguishes topology nodes.
type NodeKind int

// Node kinds: forwarding switches and NF middleboxes (§5.1: "the nodes can
// be a switch or an NF").
const (
	Switch NodeKind = iota
	NFBox
)

func (k NodeKind) String() string {
	switch k {
	case Switch:
		return "switch"
	case NFBox:
		return "nf"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a switch or NF box in the topology.
type Node struct {
	ID   NodeID        `json:"id"`
	Name string        `json:"name"`
	Kind NodeKind      `json:"kind"`
	NF   policy.NFKind `json:"nf,omitempty"` // set when Kind == NFBox
}

// Link is a directed capacitated link. Physical links are represented as
// two directed links with equal capacity.
type Link struct {
	From     NodeID  `json:"from"`
	To       NodeID  `json:"to"`
	Capacity float64 `json:"capacityMbps"`
}

// Endpoint is a host attached to a switch. Endpoints carry the EPG labels
// used to bind them to composed policies, and can move between switches
// (mobility, §2.2).
type Endpoint struct {
	Name   string   `json:"name"`
	Attach NodeID   `json:"attach"` // switch the endpoint currently hangs off
	Labels []string `json:"labels"` // EPG membership labels
}

// Topology is the target network graph.
type Topology struct {
	Name      string     `json:"name"`
	Nodes     []Node     `json:"nodes"`
	Links     []Link     `json:"links"`
	Endpoints []Endpoint `json:"endpoints,omitempty"`

	adj      [][]NodeID // lazily built adjacency by node ID, neighbors ascending
	capIndex map[[2]NodeID]float64
	epIndex  map[string]int
}

// NewTopology returns an empty named topology.
func NewTopology(name string) *Topology {
	return &Topology{Name: name}
}

// AddSwitch appends a switch node and returns its ID.
func (t *Topology) AddSwitch(name string) NodeID {
	id := NodeID(len(t.Nodes))
	if name == "" {
		name = fmt.Sprintf("s%d", id)
	}
	t.Nodes = append(t.Nodes, Node{ID: id, Name: name, Kind: Switch})
	t.invalidate()
	return id
}

// AddNF appends a network-function box of the given kind and returns its ID.
func (t *Topology) AddNF(name string, kind policy.NFKind) NodeID {
	id := NodeID(len(t.Nodes))
	if name == "" {
		name = fmt.Sprintf("%s%d", strings.ToLower(string(kind)), id)
	}
	t.Nodes = append(t.Nodes, Node{ID: id, Name: name, Kind: NFBox, NF: kind})
	t.invalidate()
	return id
}

// AddLink adds a bidirectional link with the given capacity in Mbps.
func (t *Topology) AddLink(a, b NodeID, capacity float64) error {
	if err := t.checkNode(a); err != nil {
		return err
	}
	if err := t.checkNode(b); err != nil {
		return err
	}
	if a == b {
		return fmt.Errorf("topo: self link on node %d", a)
	}
	if capacity <= 0 {
		return fmt.Errorf("topo: non-positive capacity %g on link %d-%d", capacity, a, b)
	}
	t.Links = append(t.Links, Link{From: a, To: b, Capacity: capacity}, Link{From: b, To: a, Capacity: capacity})
	t.invalidate()
	return nil
}

// RemoveLink deletes the bidirectional link between a and b (link failure,
// §8 of the paper). It returns an error when no such link exists.
func (t *Topology) RemoveLink(a, b NodeID) error {
	found := false
	kept := t.Links[:0]
	for _, l := range t.Links {
		if (l.From == a && l.To == b) || (l.From == b && l.To == a) {
			found = true
			continue
		}
		kept = append(kept, l)
	}
	if !found {
		return fmt.Errorf("topo: no link between %d and %d", a, b)
	}
	t.Links = kept
	t.invalidate()
	return nil
}

// LinkKey normalizes the undirected link between a and b to a map key:
// the same key for either direction.
func LinkKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// AddEndpoint attaches a named endpoint with EPG labels to a switch.
func (t *Topology) AddEndpoint(name string, attach NodeID, epgLabels ...string) error {
	if err := t.checkNode(attach); err != nil {
		return err
	}
	if t.Nodes[attach].Kind != Switch {
		return fmt.Errorf("topo: endpoint %q attached to non-switch node %d", name, attach)
	}
	if _, dup := t.endpointIndex(name); dup {
		return fmt.Errorf("topo: duplicate endpoint %q", name)
	}
	t.Endpoints = append(t.Endpoints, Endpoint{Name: name, Attach: attach, Labels: epgLabels})
	t.invalidate()
	return nil
}

// MoveEndpoint relocates an endpoint to another switch (endpoint mobility,
// §2.2).
func (t *Topology) MoveEndpoint(name string, to NodeID) error {
	if err := t.checkNode(to); err != nil {
		return err
	}
	if t.Nodes[to].Kind != Switch {
		return fmt.Errorf("topo: endpoint %q moved to non-switch node %d", name, to)
	}
	i, ok := t.endpointIndex(name)
	if !ok {
		return fmt.Errorf("topo: unknown endpoint %q", name)
	}
	t.Endpoints[i].Attach = to
	return nil
}

// EndpointByName returns the endpoint with the given name.
func (t *Topology) EndpointByName(name string) (Endpoint, bool) {
	i, ok := t.endpointIndex(name)
	if !ok {
		return Endpoint{}, false
	}
	return t.Endpoints[i], true
}

// RelabelEndpoint replaces an endpoint's EPG labels (group membership
// change, §2.2).
func (t *Topology) RelabelEndpoint(name string, epgLabels ...string) error {
	i, ok := t.endpointIndex(name)
	if !ok {
		return fmt.Errorf("topo: unknown endpoint %q", name)
	}
	t.Endpoints[i].Labels = epgLabels
	return nil
}

// EndpointsMatching returns the names of endpoints whose label sets include
// every label of the EPG (group membership).
func (t *Topology) EndpointsMatching(epg policy.EPG) []string {
	var out []string
	for _, ep := range t.Endpoints {
		if epg.Contains(ep.Labels) {
			out = append(out, ep.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Neighbors returns the IDs of the nodes n has a link to, ascending. The
// slice is the topology's own index and must not be modified; a topology
// mutation builds a new index and leaves slices already returned intact,
// so a caller may mutate the topology while ranging over one.
func (t *Topology) Neighbors(n NodeID) []NodeID {
	t.buildIndex()
	if n < 0 || int(n) >= len(t.adj) {
		return nil
	}
	nb := t.adj[n]
	return nb[:len(nb):len(nb)] // an append by the caller copies
}

// LinkCapacity returns the capacity of directed link a->b, or ok=false.
func (t *Topology) LinkCapacity(a, b NodeID) (float64, bool) {
	t.buildIndex()
	c, ok := t.capIndex[[2]NodeID{a, b}]
	return c, ok
}

// NodesOfKind returns the IDs of nodes of the given kind, and for NFBox
// optionally filtered to one NF kind (empty means all).
func (t *Topology) NodesOfKind(kind NodeKind, nf policy.NFKind) []NodeID {
	var out []NodeID
	for _, n := range t.Nodes {
		if n.Kind != kind {
			continue
		}
		if kind == NFBox && nf != "" && n.NF != nf {
			continue
		}
		out = append(out, n.ID)
	}
	return out
}

// Validate checks structural invariants: link endpoints exist, endpoints
// attach to switches, the switch graph is connected.
func (t *Topology) Validate() error {
	if err := t.ValidateStructure(); err != nil {
		return err
	}
	if len(t.Nodes) > 0 && !t.connected() {
		return fmt.Errorf("topo: %s is not connected", t.Name)
	}
	return nil
}

// ValidateStructure checks referential integrity only — link endpoints
// exist, capacities are positive, endpoints attach to switches — without
// requiring connectivity. A runtime that quarantined a switch legitimately
// holds a disconnected topology, and recovery must round-trip it; input
// boundaries that need a connected fabric use Validate.
func (t *Topology) ValidateStructure() error {
	for _, l := range t.Links {
		if err := t.checkNode(l.From); err != nil {
			return err
		}
		if err := t.checkNode(l.To); err != nil {
			return err
		}
		if l.Capacity <= 0 {
			return fmt.Errorf("topo: link %d->%d has capacity %g", l.From, l.To, l.Capacity)
		}
	}
	for _, ep := range t.Endpoints {
		if err := t.checkNode(ep.Attach); err != nil {
			return fmt.Errorf("topo: endpoint %q: %w", ep.Name, err)
		}
		if t.Nodes[ep.Attach].Kind != Switch {
			return fmt.Errorf("topo: endpoint %q attached to non-switch", ep.Name)
		}
	}
	return nil
}

func (t *Topology) connected() bool {
	t.buildIndex()
	seen := make(map[NodeID]bool, len(t.Nodes))
	var stack []NodeID
	stack = append(stack, t.Nodes[0].ID)
	seen[t.Nodes[0].ID] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range t.adj[n] {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return len(seen) == len(t.Nodes)
}

func (t *Topology) checkNode(n NodeID) error {
	if n < 0 || int(n) >= len(t.Nodes) {
		return fmt.Errorf("topo: node %d out of range [0,%d)", n, len(t.Nodes))
	}
	return nil
}

// invalidate drops the lazily built indices. It never writes into them, so
// slices Neighbors handed out keep their contents.
func (t *Topology) invalidate() {
	t.adj = nil
	t.capIndex = nil
	t.epIndex = nil
}

// Index builds the adjacency, capacity and endpoint indices now. Lookups
// otherwise build them on first use, which is a data race when that first
// use comes from several goroutines at once: call Index before sharing a
// topology between goroutines that only read it.
func (t *Topology) Index() {
	t.buildIndex()
	t.endpointIndex("")
}

func (t *Topology) buildIndex() {
	if t.adj != nil {
		return
	}
	t.adj = make([][]NodeID, len(t.Nodes))
	t.capIndex = make(map[[2]NodeID]float64, len(t.Links))
	for _, l := range t.Links {
		if t.checkNode(l.From) == nil { // ValidateStructure reports the rest
			t.adj[l.From] = append(t.adj[l.From], l.To)
		}
		t.capIndex[[2]NodeID{l.From, l.To}] = l.Capacity
	}
	for _, nb := range t.adj {
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
}

func (t *Topology) endpointIndex(name string) (int, bool) {
	if t.epIndex == nil {
		t.epIndex = make(map[string]int, len(t.Endpoints)) //janus:allow(hotalloc): lazy one-time endpoint index, shared by every subsequent lookup
		for i, ep := range t.Endpoints {
			t.epIndex[ep.Name] = i
		}
	}
	i, ok := t.epIndex[name]
	return i, ok
}

// MarshalJSON encodes the topology.
func (t *Topology) MarshalJSON() ([]byte, error) {
	type alias Topology
	return json.Marshal((*alias)(t))
}

// UnmarshalJSON decodes the topology and checks referential integrity.
// Connectivity is deliberately not required here: durable-store recovery
// round-trips topologies with quarantined (isolated) switches. Input
// boundaries that need a connected fabric call Validate explicitly.
func (t *Topology) UnmarshalJSON(data []byte) error {
	type alias Topology
	if err := json.Unmarshal(data, (*alias)(t)); err != nil {
		return fmt.Errorf("topo: decoding topology: %w", err)
	}
	t.invalidate()
	return t.ValidateStructure()
}

// PlaceNFs attaches NF boxes of the given kinds to a random fraction of
// switches (the paper randomly assigns NFs to 10–30% of nodes, §7). Each
// chosen switch gets one NF box of each kind, linked with nfLinkCapacity.
// The rng makes placement reproducible.
func (t *Topology) PlaceNFs(rng *rand.Rand, kinds []policy.NFKind, fraction float64, nfLinkCapacity float64) error {
	switches := t.NodesOfKind(Switch, "")
	if len(switches) == 0 {
		return fmt.Errorf("topo: no switches to place NFs on")
	}
	n := int(float64(len(switches))*fraction + 0.5)
	if n < 1 {
		n = 1
	}
	if n > len(switches) {
		n = len(switches)
	}
	perm := rng.Perm(len(switches))
	for _, kind := range kinds {
		for i := 0; i < n; i++ {
			sw := switches[perm[(i+int(kindSalt(kind)))%len(switches)]]
			nf := t.AddNF("", kind)
			if err := t.AddLink(sw, nf, nfLinkCapacity); err != nil {
				return err
			}
		}
	}
	return nil
}

func kindSalt(k policy.NFKind) int {
	s := 0
	for _, c := range string(k) {
		s += int(c)
	}
	return s
}
