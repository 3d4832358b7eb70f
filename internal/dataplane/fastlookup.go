package dataplane

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"janus/internal/policy"
	"janus/internal/topo"
)

// This file hosts the compiled fast path: an immutable flow-classification
// structure built from the installed tables, so steady-state first-packet
// classification costs one hash probe plus two binary searches instead of a
// per-hop walk (Contra-style separation of decision logic from the packet
// path). The interpreted Lookup (dataplane.go) stays the one forwarding
// walk: compile partitions each (src, dst) pair's (proto, port) probe space
// into the classes its classifiers induce — the concrete protocols and ports
// any of the pair's rules mention, plus an OTHER class for everything
// unmentioned — and stores, per class, the result of one Lookup call on a
// representative. Probes in one class see the same rules match at every
// hop, so that result is every member's.
//
// Swap protocol: a Network serves a classifier from its creation
// (generation 0, compiled from the empty tables). Writers (the runtime's
// install path) call Compile once the rule set settles, audit the
// structure it returns, and Publish it with a single atomic pointer store
// only when the audit is clean; Recompile does both without an audit.
// Readers load the pointer once per lookup and keep using that generation
// even if a swap lands mid-call — every observed result is therefore
// consistent with the pre- or post-swap rule set, never a torn mix.
// Mid-plan states (between ApplyPhase calls) are intentionally NOT
// compiled: the fast path always serves the last settled configuration.

// Path is a precomputed forwarding path. It is shared between lookups and
// MUST NOT be mutated by callers.
type Path []topo.NodeID

// Compiled is the immutable compiled lookup structure for one installed
// rule-set generation. Lookups are safe from any number of goroutines with
// no synchronization.
type Compiled struct {
	generation uint64

	// eps interns endpoint names to dense ids; attach[id] is the endpoint's
	// attachment node and names[id] its name.
	eps    map[string]int32
	attach []topo.NodeID
	names  []string

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
	path Path
	err  error
}

// Generation returns the swap generation stamped when the structure was
// published (0 for a network's first classifier and for one not yet
// published).
func (c *Compiled) Generation() uint64 { return c.generation }

// Flows returns the number of (src,dst) pairs with compiled entries.
func (c *Compiled) Flows() int { return len(c.entries) }

// Endpoints returns the number of interned endpoints.
func (c *Compiled) Endpoints() int { return len(c.attach) }

// Outcomes returns the number of distinct precomputed outcomes.
func (c *Compiled) Outcomes() int { return len(c.outcomes) }

// Lookup classifies one flow probe. It returns the precomputed full node
// path (shared and immutable — callers must not mutate it) and the exact
// error the interpreted walk produced, or (nil, error) for unknown
// endpoints. Steady-state lookups — endpoints known, pair has installed
// rules — perform zero heap allocations.
//
//janus:hotpath
func (c *Compiled) Lookup(src, dst string, proto policy.Protocol, port int) (Path, error) {
	sid, ok := c.eps[src]
	if !ok {
		return nil, fmt.Errorf("dataplane: unknown endpoint %q", src) //janus:allow(hotalloc): error construction on the failure path only
	}
	did, ok := c.eps[dst]
	if !ok {
		return nil, fmt.Errorf("dataplane: unknown endpoint %q", dst) //janus:allow(hotalloc): error construction on the failure path only
	}
	ei, ok := c.flows[uint64(uint32(sid))<<32|uint64(uint32(did))]
	if !ok {
		return c.ruleless(sid, did)
	}
	e := &c.entries[ei]
	o := &c.outcomes[e.decisions[e.class(proto, port)]]
	return o.path, o.err
}

// Endpoint returns the id an endpoint name is interned to, for
// LookupAnyClass.
func (c *Compiled) Endpoint(name string) (int32, bool) {
	id, ok := c.eps[name]
	return id, ok
}

// LookupAnyClass is Lookup of two endpoints by their interned ids
// (Endpoint), so a sweep over many pairs resolves each name once, widened
// to every class of the pair: when the probe's own class does not
// deliver, it reads the others the pair's rules cut, in decision order,
// and returns the first that delivers, rendered "proto/port" (each
// "other" for the unmentioned class), with its path. The class is "" when
// the probe's own class answers, delivering or not. A pair without
// installed rules has one class, the probe's. The ids must come from this
// structure. Reading the classes allocates nothing; only a find formats.
//
//janus:hotpath
func (c *Compiled) LookupAnyClass(sid, did int32, proto policy.Protocol, port int) (string, Path, error) {
	ei, ok := c.flows[uint64(uint32(sid))<<32|uint64(uint32(did))]
	if !ok {
		p, err := c.ruleless(sid, did)
		return "", p, err
	}
	e := &c.entries[ei]
	probe := &c.outcomes[e.decisions[e.class(proto, port)]]
	if probe.err == nil {
		return "", probe.path, nil
	}
	for i, oi := range e.decisions {
		o := &c.outcomes[oi]
		if o.err != nil {
			continue
		}
		pi, qi := i/(len(e.ports)+1), i%(len(e.ports)+1)
		proto, port := "other", "other"
		if pi < len(e.protos) {
			proto = string(e.protos[pi])
		}
		if qi < len(e.ports) {
			port = strconv.Itoa(e.ports[qi])
		}
		return proto + "/" + port, o.path, nil //janus:allow(hotalloc): names a leak, which fails the audit
	}
	return "", probe.path, probe.err
}

// ruleless is the outcome of probing a pair with no installed rules: the
// interpreted walk stops at the source attachment immediately — delivered
// if the endpoints share it, a one-hop blackhole otherwise.
func (c *Compiled) ruleless(sid, did int32) (Path, error) {
	at := c.attach[sid]
	var p Path
	if int(at) >= 0 && int(at) < len(c.single) {
		p = c.single[at]
	} else {
		p = Path{at} //janus:allow(hotalloc): dangling attachment, off the steady state
	}
	if at == c.attach[did] {
		return p, nil
	}
	return p, fmt.Errorf("dataplane: blackhole at switch %d for %s->%s", at, c.names[sid], c.names[did]) //janus:allow(hotalloc): check's isolation probes expect a blackhole for pairs without rules and format this error per probe; ROADMAP.md item 3 removes that cost
}

// class returns the index into decisions of the class (proto, port) falls
// in: its row by a binary search of protos (missing -> the OTHER row at
// index len(protos)), its column likewise over ports.
func (e *flowEntry) class(proto policy.Protocol, port int) int {
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
	return pi*(len(e.ports)+1) + qi
}

// compile builds the lookup structure for the installed tables. Endpoints
// are interned first name first; every class cell of every pair with rules
// holds one Lookup call's result.
func (n *Network) compile() *Compiled {
	t := n.topo
	c := &Compiled{
		eps:    make(map[string]int32, len(t.Endpoints)),
		attach: make([]topo.NodeID, 0, len(t.Endpoints)),
		names:  make([]string, 0, len(t.Endpoints)),
		flows:  make(map[uint64]int32),
		single: make([]Path, len(t.Nodes)),
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
		c.names = append(c.names, ep.Name)
	}

	// The classes of a pair are cut by what any of its rules mentions, on
	// any switch. Only pairs whose endpoints both exist can be probed
	// through the compiled path; others fail endpoint interning first.
	type pairCls struct {
		protos map[policy.Protocol]bool
		ports  map[int]bool
	}
	pairs := map[flowKey]*pairCls{}
	for _, sw := range n.switches {
		for k, ss := range sw.Table.flows {
			if _, ok := c.eps[k.src]; !ok {
				continue
			}
			if _, ok := c.eps[k.dst]; !ok {
				continue
			}
			pc := pairs[k]
			if pc == nil {
				pc = &pairCls{protos: map[policy.Protocol]bool{}, ports: map[int]bool{}}
				pairs[k] = pc
			}
			for i := range ss {
				m := &ss[i].Match
				if m.Proto != "" && m.Proto != policy.Any {
					pc.protos[m.Proto] = true
				}
				for _, p := range m.Ports {
					pc.ports[p] = true
				}
			}
		}
	}

	// Deterministic pair order so identical inputs compile to identical
	// structures (entry and outcome indices included).
	pairKeys := make([]flowKey, 0, len(pairs))
	for k := range pairs {
		pairKeys = append(pairKeys, k)
	}
	sort.Slice(pairKeys, func(i, j int) bool {
		if pairKeys[i].src != pairKeys[j].src {
			return pairKeys[i].src < pairKeys[j].src
		}
		return pairKeys[i].dst < pairKeys[j].dst
	})

	for _, k := range pairKeys {
		pc := pairs[k]
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
				w, err := n.Lookup(k.src, k.dst, proto, port)
				o := outcome{path: w, err: err}
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
		sid, did := c.eps[k.src], c.eps[k.dst]
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
	return fmt.Sprintf("%v|%s", o.path, errs)
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

// AllRules returns every installed rule, unordered. Writer-side only: it
// iterates the live tables without synchronization.
func (n *Network) AllRules() []Rule {
	out := make([]Rule, 0, n.RuleCount())
	for id, sw := range n.switches {
		out = sw.Table.appendRules(out, id)
	}
	return out
}

// Compile builds the compiled fast path from the currently installed
// tables without publishing it, and counts the compile in FastpathStats.
// Must be called from the writer (mutation-serialized) side, at a point
// where the rule set is settled: after a successful ApplyPlan, or after a
// table change outside a plan (DropTable, a crash).
func (n *Network) Compile() *Compiled {
	start := time.Now()
	c := n.compile()
	elapsed := time.Since(start)
	n.fastCompiles.Add(1)
	n.fastCompileNanos.Add(int64(elapsed))
	n.fastLastNanos.Store(int64(elapsed))
	return c
}

// Publish stamps c, a structure Compile built from the tables as they
// still are, with the next generation number and swaps it in atomically.
// Writer-side only; each structure is published at most once.
func (n *Network) Publish(c *Compiled) {
	c.generation = n.fastGen.Add(1)
	n.fast.Store(c)
	if n.fastObserver != nil {
		n.fastObserver(c.generation, n.AllRules())
	}
}

// Recompile compiles the installed tables and publishes the result.
func (n *Network) Recompile() *Compiled {
	c := n.Compile()
	n.Publish(c)
	return c
}

// Fastpath returns the currently published structure. Safe from any
// goroutine.
func (n *Network) Fastpath() *Compiled { return n.fast.Load() }

// SetRecompileObserver installs a hook invoked by every Publish with the
// new generation and the exact rules it compiled (the slice is freshly
// allocated per call and safe to retain). Writer-side only; pass nil to
// clear. Test instrumentation for the swap-under-load soak.
func (n *Network) SetRecompileObserver(fn func(gen uint64, rules []Rule)) {
	n.fastObserver = fn
}

// FastLookup classifies a flow through the published compiled structure.
// Safe from any number of goroutines concurrently with writer-side swaps.
//
//janus:hotpath
func (n *Network) FastLookup(src, dst string, proto policy.Protocol, port int) (Path, error) {
	return n.fast.Load().Lookup(src, dst, proto, port)
}

// FastpathStats is the /metrics view of the compiled fast path.
type FastpathStats struct {
	// Generation is the current compiled generation (0 = never compiled).
	Generation uint64 `json:"generation"`
	// Compiles counts Compile calls; a network's first classifier is not
	// counted.
	Compiles uint64 `json:"compiles"`
	// Flows / Endpoints / Outcomes describe the current structure.
	Flows     int `json:"flows"`
	Endpoints int `json:"endpoints"`
	Outcomes  int `json:"outcomes"`
	// LastCompileMicros / TotalCompileMicros are compile-time costs.
	LastCompileMicros  float64 `json:"lastCompileMicros"`
	TotalCompileMicros float64 `json:"totalCompileMicros"`
}

// FastpathStats returns the compile counters and the dimensions of the
// currently published structure. Safe from any goroutine.
func (n *Network) FastpathStats() FastpathStats {
	s := FastpathStats{
		Compiles:           n.fastCompiles.Load(),
		LastCompileMicros:  float64(n.fastLastNanos.Load()) / 1e3,
		TotalCompileMicros: float64(n.fastCompileNanos.Load()) / 1e3,
	}
	c := n.fast.Load()
	s.Generation = c.Generation()
	s.Flows = c.Flows()
	s.Endpoints = c.Endpoints()
	s.Outcomes = c.Outcomes()
	return s
}
