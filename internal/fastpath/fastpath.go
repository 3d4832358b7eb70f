// Package fastpath compiles an installed dataplane rule set into an
// immutable flow-classification structure, so steady-state first-packet
// classification costs one hash probe plus two binary searches instead of a
// per-hop walk over per-switch flow tables (the ROADMAP's "heavy traffic"
// target; Contra-style separation of decision logic from the packet path).
//
// Compile walks every (src endpoint, dst endpoint) pair that has installed
// rules, partitions the (proto, port) probe space into the equivalence
// classes induced by the pair's classifiers — the concrete protocols and
// ports any rule mentions, plus an OTHER class for everything unmentioned —
// and replays the interpreted forwarding walk once per class at compile
// time. Probes in the same class see the same rules match at every hop, so
// the precomputed outcome (full node path, ingress queue rate, or the exact
// error the interpreter would return) is valid for every member.
//
// A Compiled value is immutable after Compile returns: lookups are safe
// from any number of goroutines with no synchronization, and writers
// publish a new generation through an atomic pointer swap on the Network
// (see dataplane.Recompile) — readers never block reconfigurations.
package fastpath

import (
	"fmt"
	"sort"

	"janus/internal/policy"
	"janus/internal/topo"
)

// Rule mirrors dataplane.Rule field-for-field so the dataplane can hand its
// installed rules to Compile with a direct struct conversion. fastpath must
// not import dataplane (dataplane imports fastpath to host the atomic
// holder), so the shared shape lives here by construction.
type Rule struct {
	Switch    topo.NodeID
	Src       string
	Dst       string
	Match     policy.Classifier
	NextHop   topo.NodeID
	InPort    topo.NodeID
	QueueMbps float64
	Priority  int
}

// HostPort is the InPort of rules matching traffic entering from an
// attached endpoint (same value as dataplane.HostPort).
const HostPort = topo.NodeID(-1)

// Path is a precomputed forwarding path. It is shared between lookups and
// MUST NOT be mutated by callers.
type Path []topo.NodeID

// Compiled is the immutable compiled lookup structure for one installed
// rule-set generation.
type Compiled struct {
	generation uint64

	// eps interns endpoint names to dense ids; attach[id] is the endpoint's
	// attachment node.
	eps    map[string]int32
	attach []topo.NodeID

	// flows maps srcID<<32|dstID to an index into entries for pairs that
	// have at least one installed rule.
	flows   map[uint64]int32
	entries []flowEntry

	// outcomes is the arena all entries' decisions index into.
	outcomes []outcome

	// single[node] is the one-hop path {node}: the outcome of probing a
	// pair with no installed rules, whose walk stops at the source
	// attachment immediately (delivered if the endpoints share it, a
	// blackhole otherwise — the error carries the flow names, so it cannot
	// be precomputed per node and is built on that failure path instead).
	single []Path
}

// flowEntry is the classifier-dispatch structure for one (src,dst) pair:
// sorted mentioned protocols and ports, plus a decisions matrix of
// (len(protos)+1) x (len(ports)+1) outcome indices. A probe resolves its
// row by binary-searching protos (missing -> the OTHER row at index
// len(protos)), its column likewise over ports.
type flowEntry struct {
	protos    []policy.Protocol
	ports     []int
	decisions []int32
}

// outcome is one precomputed classification result.
type outcome struct {
	path      Path
	queueMbps float64
	err       error
}

// Generation returns the swap generation stamped at compile time.
func (c *Compiled) Generation() uint64 { return c.generation }

// Flows returns the number of (src,dst) pairs with compiled entries.
func (c *Compiled) Flows() int { return len(c.entries) }

// Endpoints returns the number of interned endpoints.
func (c *Compiled) Endpoints() int { return len(c.attach) }

// Outcomes returns the number of distinct precomputed outcomes.
func (c *Compiled) Outcomes() int { return len(c.outcomes) }

// Lookup classifies one flow probe. It returns the precomputed full node
// path (shared and immutable — callers must not mutate it) and the exact
// error the interpreted dataplane walk would produce, or (nil, error) for
// unknown endpoints. Steady-state lookups — endpoints known, pair has
// installed rules — perform zero heap allocations.
//
//janus:hotpath
func (c *Compiled) Lookup(src, dst string, proto policy.Protocol, port int) (Path, error) {
	p, _, err := c.lookup(src, dst, proto, port)
	return p, err
}

//janus:hotpath
func (c *Compiled) lookup(src, dst string, proto policy.Protocol, port int) (Path, float64, error) {
	sid, ok := c.eps[src]
	if !ok {
		return nil, 0, fmt.Errorf("dataplane: unknown endpoint %q", src) //janus:allow(hotalloc): error construction on the failure path only
	}
	did, ok := c.eps[dst]
	if !ok {
		return nil, 0, fmt.Errorf("dataplane: unknown endpoint %q", dst) //janus:allow(hotalloc): error construction on the failure path only
	}
	ei, ok := c.flows[uint64(uint32(sid))<<32|uint64(uint32(did))]
	if !ok {
		// No installed rules for the pair: the interpreted walk stops at
		// the source attachment immediately — delivered if the endpoints
		// share it, a one-hop blackhole otherwise.
		at := c.attach[sid]
		var p Path
		if int(at) >= 0 && int(at) < len(c.single) {
			p = c.single[at]
		} else {
			p = Path{at} //janus:allow(hotalloc): dangling attachment, off the steady state
		}
		if at == c.attach[did] {
			return p, 0, nil
		}
		return p, 0, fmt.Errorf("dataplane: blackhole at switch %d for %s->%s", at, src, dst) //janus:allow(hotalloc): error construction on the failure path only
	}
	e := &c.entries[ei]
	// Manual binary searches: sort.Search costs a closure allocation.
	pi := len(e.protos)
	lo, hi := 0, len(e.protos)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.protos[mid] < proto {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(e.protos) && e.protos[lo] == proto {
		pi = lo
	}
	qi := len(e.ports)
	lo, hi = 0, len(e.ports)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.ports[mid] < port {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(e.ports) && e.ports[lo] == port {
		qi = lo
	}
	o := &c.outcomes[e.decisions[pi*(len(e.ports)+1)+qi]]
	return o.path, o.queueMbps, o.err
}

// compiler carries compile-time state: the per-(switch,src,dst,inport)
// candidate lists sorted into deterministic match order, mirroring the
// interpreter's matchRule selection.
type compiler struct {
	tables   map[tableKey][]Rule
	attachOf map[string]topo.NodeID
	maxSteps int
}

type tableKey struct {
	sw       topo.NodeID
	src, dst string
	inPort   topo.NodeID
}

// Compile builds the immutable lookup structure for the given topology and
// installed rules, stamped with the given swap generation. Rules on nodes
// the topology does not know (dangling switches) compile exactly like the
// interpreter treats them: installed but never reached, and a walk
// forwarded onto an unknown node sees an empty table there.
func Compile(t *topo.Topology, rules []Rule, generation uint64) *Compiled {
	c := &Compiled{
		generation: generation,
		eps:        make(map[string]int32, len(t.Endpoints)),
		attach:     make([]topo.NodeID, 0, len(t.Endpoints)),
		flows:      make(map[uint64]int32),
		single:     make([]Path, len(t.Nodes)),
	}
	for i := range t.Nodes {
		c.single[i] = Path{t.Nodes[i].ID}
	}
	for _, ep := range t.Endpoints {
		if _, dup := c.eps[ep.Name]; dup {
			continue
		}
		c.eps[ep.Name] = int32(len(c.attach))
		c.attach = append(c.attach, ep.Attach)
	}

	cp := &compiler{
		tables:   make(map[tableKey][]Rule),
		attachOf: make(map[string]topo.NodeID, len(c.eps)),
		maxSteps: 4*len(t.Nodes) + 8,
	}
	for name, id := range c.eps {
		cp.attachOf[name] = c.attach[id]
	}
	type pairCls struct {
		protos map[policy.Protocol]bool
		ports  map[int]bool
	}
	pairs := map[[2]string]*pairCls{}
	for _, r := range rules {
		k := tableKey{sw: r.Switch, src: r.Src, dst: r.Dst, inPort: r.InPort}
		cp.tables[k] = append(cp.tables[k], r)
		// Only pairs whose endpoints both exist can ever be probed through
		// the compiled path; others fail endpoint interning first.
		if _, ok := c.eps[r.Src]; !ok {
			continue
		}
		if _, ok := c.eps[r.Dst]; !ok {
			continue
		}
		pk := [2]string{r.Src, r.Dst}
		pc := pairs[pk]
		if pc == nil {
			pc = &pairCls{protos: map[policy.Protocol]bool{}, ports: map[int]bool{}}
			pairs[pk] = pc
		}
		if r.Match.Proto != "" && r.Match.Proto != policy.Any {
			pc.protos[r.Match.Proto] = true
		}
		for _, p := range r.Match.Ports {
			pc.ports[p] = true
		}
	}
	// Deterministic match order within each candidate list: priority
	// descending, then Classifier.Compare ascending — the interpreter's
	// matchRule selects exactly this list's first matching element.
	for _, cand := range cp.tables {
		sort.Slice(cand, func(i, j int) bool {
			if cand[i].Priority != cand[j].Priority {
				return cand[i].Priority > cand[j].Priority
			}
			return cand[i].Match.Compare(cand[j].Match) < 0
		})
	}

	// Deterministic pair order so identical inputs compile to identical
	// structures (entry and outcome indices included).
	pairKeys := make([][2]string, 0, len(pairs))
	for pk := range pairs {
		pairKeys = append(pairKeys, pk)
	}
	sort.Slice(pairKeys, func(i, j int) bool {
		if pairKeys[i][0] != pairKeys[j][0] {
			return pairKeys[i][0] < pairKeys[j][0]
		}
		return pairKeys[i][1] < pairKeys[j][1]
	})

	for _, pk := range pairKeys {
		pc := pairs[pk]
		e := flowEntry{
			protos: make([]policy.Protocol, 0, len(pc.protos)),
			ports:  make([]int, 0, len(pc.ports)),
		}
		for p := range pc.protos {
			e.protos = append(e.protos, p)
		}
		sort.Slice(e.protos, func(i, j int) bool { return e.protos[i] < e.protos[j] })
		for p := range pc.ports {
			e.ports = append(e.ports, p)
		}
		sort.Ints(e.ports)

		otherProto := otherProtoRep(pc.protos)
		otherPort := otherPortRep(pc.ports)
		e.decisions = make([]int32, (len(e.protos)+1)*(len(e.ports)+1))
		// Dedup identical outcomes within the pair: distinct classes very
		// often walk to the same result, and sharing keeps one Path alive
		// per distinct result instead of one per class.
		dedup := map[string]int32{}
		for pi := 0; pi <= len(e.protos); pi++ {
			proto := otherProto
			if pi < len(e.protos) {
				proto = e.protos[pi]
			}
			for qi := 0; qi <= len(e.ports); qi++ {
				port := otherPort
				if qi < len(e.ports) {
					port = e.ports[qi]
				}
				o := cp.walk(pk[0], pk[1], proto, port)
				sig := o.signature()
				oi, ok := dedup[sig]
				if !ok {
					oi = int32(len(c.outcomes))
					c.outcomes = append(c.outcomes, o)
					dedup[sig] = oi
				}
				e.decisions[pi*(len(e.ports)+1)+qi] = oi
			}
		}
		sid, did := c.eps[pk[0]], c.eps[pk[1]]
		c.flows[uint64(uint32(sid))<<32|uint64(uint32(did))] = int32(len(c.entries))
		c.entries = append(c.entries, e)
	}
	return c
}

// signature canonicalizes an outcome for intra-pair deduplication.
func (o outcome) signature() string {
	errs := ""
	if o.err != nil {
		errs = o.err.Error()
	}
	return fmt.Sprintf("%v|%g|%s", o.path, o.queueMbps, errs)
}

// otherProtoRep picks a protocol no rule of the pair mentions, representing
// the OTHER equivalence class in compile-time walks. "\x00" is not a valid
// classifier protocol in practice, but the loop keeps the representative
// correct even against adversarial (fuzzed) rule sets.
func otherProtoRep(mentioned map[policy.Protocol]bool) policy.Protocol {
	p := policy.Protocol("\x00")
	for mentioned[p] {
		p += "\x00"
	}
	return p
}

// otherPortRep picks a port no rule of the pair mentions.
func otherPortRep(mentioned map[int]bool) int {
	p := -1
	for mentioned[p] {
		p--
	}
	return p
}

// walk replays the interpreted dataplane walk for one equivalence-class
// representative, producing the outcome every member of the class observes.
// Control flow, step budget, and error text mirror dataplane.Network.Lookup
// exactly — the differential fuzzer holds us to byte equality.
func (cp *compiler) walk(src, dst string, proto policy.Protocol, port int) outcome {
	dstAttach := cp.attachOf[dst]
	cur := cp.attachOf[src]
	prev := HostPort
	var w Path
	queue := 0.0
	first := true
	for steps := 0; steps <= cp.maxSteps; steps++ {
		w = append(w, cur)
		r, ok := cp.match(cur, src, dst, prev, proto, port)
		if !ok {
			if cur == dstAttach {
				return outcome{path: w, queueMbps: queue}
			}
			return outcome{path: w, err: fmt.Errorf("dataplane: blackhole at switch %d for %s->%s", cur, src, dst)}
		}
		if first {
			queue = r.QueueMbps
			first = false
		}
		prev, cur = cur, r.NextHop
	}
	return outcome{path: w, err: fmt.Errorf("dataplane: forwarding loop for %s->%s (walk %v)", src, dst, []topo.NodeID(w))}
}

// match selects the winning rule at one hop from the pre-sorted candidate
// list: first classifier match wins, which under the (priority desc,
// Compare asc) sort equals the interpreter's matchRule selection.
func (cp *compiler) match(sw topo.NodeID, src, dst string, inPort topo.NodeID, proto policy.Protocol, port int) (Rule, bool) {
	for _, r := range cp.tables[tableKey{sw: sw, src: src, dst: dst, inPort: inPort}] {
		if r.Match.Matches(proto, port) {
			return r, true
		}
	}
	return Rule{}, false
}
