package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"janus/internal/compose"
	"janus/internal/lp"
	"janus/internal/paths"
	"janus/internal/policy"
	"janus/internal/topo"
)

// pathVar is one P_{i,p} indicator: policy pid's edge edgeIdx for endpoint
// pair (src,dst) realized over path.
type pathVar struct {
	v       int // lp variable index
	pid     int
	edgeIdx int
	role    EdgeRole
	src     string
	dst     string
	path    paths.Path
	bw      float64
	jitter  int  // priority-queue level, -1 when no jitter requirement
	hasJit  bool //
	// live marks the column that is its slot's previous path: Eqn 7 holds
	// it with an α, and the greedy start prefers it.
	live bool
}

func (pv *pathVar) slot() slot { return slotOf(pv.pid, pv.edgeIdx, pv.role, pv.src, pv.dst) }

// model is one period's optimization problem plus its variable layout.
type model struct {
	prob      *lp.Problem
	period    int
	iVar      map[int]int // pid -> I_i
	xiVar     map[int]int // pid -> ξ_i (only for policies with soft edges)
	pvars     []pathVar
	linkRow   map[[2]topo.NodeID]int     // capacity rows (Eqn 3)
	linkCap   map[[2]topo.NodeID]float64 // capacities of those rows
	pids      []int                      // policies in the model, sorted
	weights   map[int]float64
	weightSum float64
	integers  []int
	// unconfigurable marks policies with a hard (edge, pair) row that has
	// zero candidate paths: Eqn 2 then forces I_i = 0. The greedy start
	// must not admit them.
	unconfigurable map[int]bool
}

// activeEdges classifies the edges of p at hour h into hard edges (the
// policy itself; Eqn 2) and soft edges (stateful escalations reserved via
// ξ; Eqn 4).
func activeEdges(p *compose.Policy, h int) (hard, soft []int) {
	all := p.AllEdges()
	for i, e := range all {
		if !e.Cond.Window.Contains(h) {
			continue
		}
		// Normal-traffic edges are hard: the policy's default edge, any
		// edge the composer marked Default (refineDefaults narrows them
		// with the implicit below-threshold condition but keeps the flag),
		// and pure-temporal edges. Stateful escalations are soft.
		if i == 0 || e.Default || e.Cond.Stateful.IsAlways() {
			hard = append(hard, i)
		} else {
			soft = append(soft, i)
		}
	}
	return hard, soft
}

// escalatedEdge returns the soft edge that a pair's counter state makes
// its active edge at hour h, or -1 when the pair is served as the policy
// is: on its hard edges, reserving its soft ones.
func escalatedEdge(p *compose.Policy, h int, soft []int, state map[policy.Event]int) int {
	if _, i, ok := compose.ActiveEdge(p, h, state); ok && slices.Contains(soft, i) {
		return i
	}
	return -1
}

// policyPairs resolves the endpoint pairs of every policy once, keyed by
// policy ID: the cross product of the endpoints matching its source and
// destination EPGs.
func (c *Configurator) policyPairs() map[int][][2]string {
	out := make(map[int][][2]string, len(c.graph.Policies))
	for _, p := range c.graph.Policies {
		out[p.ID] = c.topo.Pairs(p.Src, p.Dst)
	}
	return out
}

// liveTriples returns the (src attach, dst attach, chain) of every pair of
// every policy over all its edges, so chains of other periods and of
// escalations stay: what a model build may draw on the network as it is.
func (c *Configurator) liveTriples(pairsByPid map[int][][2]string) map[paths.Triple]bool {
	out := map[paths.Triple]bool{}
	for _, p := range c.graph.Policies {
		pairs := pairsByPid[p.ID]
		for _, e := range p.AllEdges() {
			chain := e.Chain.String()
			for _, pair := range pairs {
				src, _ := c.topo.EndpointByName(pair[0])
				dst, _ := c.topo.EndpointByName(pair[1])
				out[paths.Triple{Src: src.Attach, Dst: dst.Attach, Chain: chain}] = true
			}
		}
	}
	return out
}

// bwOverride allows temporal negotiation (§5.6) to scale a policy's
// bandwidth per period: multiplier[pid][period].
type bwOverride map[int]map[int]float64

func (o bwOverride) factor(pid, period int) float64 {
	if o == nil {
		return 1
	}
	m, ok := o[pid]
	if !ok {
		return 1
	}
	f, ok := m[period]
	if !ok {
		return 1
	}
	return f
}

// modelScope restricts a period model to a subset of policies solved
// against residual link capacities — the delta sub-model. include lists
// the policy IDs to model; residual overrides the capacity of directed
// links that carry frozen assignments (links absent from the map keep
// their full topology capacity).
type modelScope struct {
	include  map[int]bool
	residual map[[2]topo.NodeID]float64
}

// buildModel constructs the period-h optimization (Eqns 1–6 and 10) for
// the flows' counter state. prevAssign, when non-nil, adds path-change
// penalties (Eqns 7–8) against that assignment set.
func (c *Configurator) buildModel(h int, prevAssign []Assignment, over bwOverride, counters Counters) (*model, error) {
	return c.buildModelScoped(lp.NewProblem(), h, prevAssign, over, counters, c.policyPairs(), nil)
}

// buildModelScoped is buildModel into prob, over each policy's resolved
// endpoint pairs, restricted to a scope; a nil scope builds the full period
// model.
func (c *Configurator) buildModelScoped(prob *lp.Problem, h int, prevAssign []Assignment, over bwOverride, counters Counters, pairsByPid map[int][][2]string, scope *modelScope) (*model, error) {
	m := &model{
		prob:           prob,
		period:         h,
		iVar:           map[int]int{},
		xiVar:          map[int]int{},
		linkRow:        map[[2]topo.NodeID]int{},
		linkCap:        map[[2]topo.NodeID]float64{},
		weights:        map[int]float64{},
		unconfigurable: map[int]bool{},
	}
	// Deterministic candidate selection per (policy, chain, pair): a child
	// RNG seeded from the configurator seed and the slot identity, so the
	// same slot sees the same candidates across periods and re-solves
	// (stable layout helps warm starts and path-change minimization). The
	// seed deliberately uses the service chain rather than the edge index:
	// a temporal policy's per-window edges share a chain (Fig 6), and they
	// must see the same candidates or cross-period path persistence would
	// be impossible by construction. One generator, made on the first
	// draw, is reseeded per slot: Seed re-initialises its source exactly as
	// NewSource would, without allocating another 607-word state.
	var rng *rand.Rand
	slotRNG := func(pid int, chain fmt.Stringer, src, dst string) *rand.Rand {
		seed := c.cfg.Seed
		seed = seed*1000003 + int64(pid)*31
		for _, ch := range chain.String() + "|" + src + "|" + dst {
			seed = seed*16777619 + int64(ch)
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(seed))
		} else {
			rng.Seed(seed)
		}
		return rng
	}

	// Each slot's previous path (Eqn 7), so every column is marked live as
	// it is made. A slot the previous result filled twice keeps its last
	// path.
	prevPath := make(map[slot]paths.Path, len(prevAssign))
	for _, a := range prevAssign {
		prevPath[a.slot()] = a.Path
	}

	type softGroup struct {
		pid  int
		rows [][]lp.Term // one convexity row per (soft edge, pair)
	}
	var softGroups []softGroup

	// Sort policies by ID for deterministic layout.
	pols := append([]*compose.Policy(nil), c.graph.Policies...)
	sort.Slice(pols, func(i, j int) bool { return pols[i].ID < pols[j].ID })

	for _, p := range pols {
		if scope != nil && !scope.include[p.ID] {
			continue // frozen outside the delta scope
		}
		hard, soft := activeEdges(p, h)
		if len(hard) == 0 {
			continue // policy not active in this period
		}
		pairs := pairsByPid[p.ID]
		if len(pairs) == 0 {
			continue // no endpoints currently in the groups
		}
		m.pids = append(m.pids, p.ID)
		m.weights[p.ID] = p.Weight
		m.weightSum += p.Weight
		iv := m.prob.AddBinary(0) // objective set after weightSum known
		m.iVar[p.ID] = iv
		m.integers = append(m.integers, iv)

		// A pair whose counters made an escalation edge active is served on
		// it hard, and reserves the policy's other active edges soft; every
		// other pair takes each edge's role for the policy.
		var esc []int
		if len(soft) > 0 {
			esc = make([]int, len(pairs))
			for j, pair := range pairs {
				esc[j] = escalatedEdge(p, h, soft, counters[FlowKey(pair[0], pair[1])])
			}
		}
		pairRole := func(edgeIdx, j int, role EdgeRole) EdgeRole {
			switch {
			case esc == nil || esc[j] < 0:
				return role
			case esc[j] == edgeIdx:
				return HardEdge
			}
			return SoftEdge
		}

		all := p.AllEdges()
		var softRows [][]lp.Term
		// addEdge adds the path variables of one edge for every pair, with
		// a hard pair's row under Eqn 2 at once and a soft pair's row kept
		// for Eqn 4, whose ξ comes after every policy's variables.
		addEdge := func(edgeIdx int, role EdgeRole) error {
			e := all[edgeIdx]
			bw, err := e.QoS.MinBandwidthMbps(c.scheme)
			if err != nil {
				return fmt.Errorf("core: policy %d edge %d: %w", p.ID, edgeIdx, err)
			}
			bw *= over.factor(p.ID, h)
			hopBudget, _, err := e.QoS.HopBudget(c.scheme)
			if err != nil {
				return fmt.Errorf("core: policy %d edge %d: %w", p.ID, edgeIdx, err)
			}
			jitLevel, hasJit, err := e.QoS.JitterLevel(c.scheme)
			if err != nil {
				return fmt.Errorf("core: policy %d edge %d: %w", p.ID, edgeIdx, err)
			}
			for j, pair := range pairs {
				srcEP, ok := c.topo.EndpointByName(pair[0])
				if !ok {
					return fmt.Errorf("core: unknown endpoint %q", pair[0])
				}
				dstEP, ok := c.topo.EndpointByName(pair[1])
				if !ok {
					return fmt.Errorf("core: unknown endpoint %q", pair[1])
				}
				rng := slotRNG(p.ID, e.Chain, pair[0], pair[1])
				cands, err := c.enum.Candidates(rng, srcEP.Attach, dstEP.Attach, e.Chain, c.cfg.CandidatePaths, hopBudget)
				if err != nil {
					return fmt.Errorf("core: policy %d pair %v: %w", p.ID, pair, err)
				}
				r := pairRole(edgeIdx, j, role)
				terms := make([]lp.Term, 0, len(cands))
				prev, hasPrev := prevPath[slotOf(p.ID, edgeIdx, r, pair[0], pair[1])]
				for _, cp := range cands {
					pv := m.prob.AddBinary(0)
					m.integers = append(m.integers, pv)
					m.pvars = append(m.pvars, pathVar{
						v: pv, pid: p.ID, edgeIdx: edgeIdx, role: r,
						src: pair[0], dst: pair[1], path: cp, bw: bw,
						jitter: jitLevel, hasJit: hasJit, live: hasPrev && prev.Equal(cp),
					})
					terms = append(terms, lp.Term{Var: pv, Coef: 1})
				}
				if r == SoftEdge {
					softRows = append(softRows, terms)
					continue
				}
				// Eqn 2: Σ_p P = I_i for every pair (group atomicity).
				if len(terms) == 0 {
					m.unconfigurable[p.ID] = true
				}
				terms = append(terms, lp.Term{Var: iv, Coef: -1})
				if _, err := m.prob.AddConstraint(lp.EQ, 0, terms); err != nil {
					return err
				}
			}
			return nil
		}

		for _, ei := range hard {
			if err := addEdge(ei, HardEdge); err != nil {
				return nil, err
			}
		}
		for _, ei := range soft {
			if err := addEdge(ei, SoftEdge); err != nil {
				return nil, err
			}
		}
		if len(softRows) > 0 {
			softGroups = append(softGroups, softGroup{pid: p.ID, rows: softRows})
		}
	}
	// The path cache keeps only what the network uses now.
	c.enum.Retain(c.liveTriples(pairsByPid))

	// Soft constraints (Eqn 4): Σ_p P_ndp = I_i − ξ_i, with ξ penalized in
	// the objective (Eqn 6).
	for _, g := range softGroups {
		xi := m.prob.AddVariable(0, 1, 0)
		m.xiVar[g.pid] = xi
		for _, terms := range g.rows {
			terms = append(terms, lp.Term{Var: m.iVar[g.pid], Coef: -1}, lp.Term{Var: xi, Coef: 1})
			if _, err := m.prob.AddConstraint(lp.EQ, 0, terms); err != nil {
				return nil, err
			}
		}
	}

	// Resource constraints (Eqn 3): per directed link, Σ BW·P ≤ CAP.
	linkTerms := map[[2]topo.NodeID][]lp.Term{}
	for _, pv := range m.pvars {
		if pv.bw <= 0 {
			continue
		}
		for _, l := range pv.path.Links() {
			linkTerms[l] = append(linkTerms[l], lp.Term{Var: pv.v, Coef: pv.bw})
		}
	}
	linkKeys := make([][2]topo.NodeID, 0, len(linkTerms))
	for l := range linkTerms {
		linkKeys = append(linkKeys, l)
	}
	sort.Slice(linkKeys, func(i, j int) bool {
		if linkKeys[i][0] != linkKeys[j][0] {
			return linkKeys[i][0] < linkKeys[j][0]
		}
		return linkKeys[i][1] < linkKeys[j][1]
	})
	for _, l := range linkKeys {
		capacity, ok := c.topo.LinkCapacity(l[0], l[1])
		if !ok {
			return nil, fmt.Errorf("core: path uses nonexistent link %v", l)
		}
		if scope != nil {
			if rc, ok := scope.residual[l]; ok {
				// Frozen assignments already hold part of this link; the
				// sub-model sees only what they left behind.
				capacity = rc
			}
		}
		r, err := m.prob.AddConstraint(lp.LE, capacity, linkTerms[l])
		if err != nil {
			return nil, err
		}
		m.linkRow[l] = r
		m.linkCap[l] = capacity
	}

	// Jitter constraints (Eqn 10): per switch and priority level, the
	// number of policies assigned to that level is capped by PR.
	if c.cfg.JitterQueueCap > 0 {
		type swLevel struct {
			sw    topo.NodeID
			level int
		}
		jitTerms := map[swLevel][]lp.Term{}
		for _, pv := range m.pvars {
			if !pv.hasJit {
				continue
			}
			for _, n := range pv.path.Nodes {
				if c.topo.Nodes[n].Kind != topo.Switch {
					continue
				}
				k := swLevel{n, pv.jitter}
				jitTerms[k] = append(jitTerms[k], lp.Term{Var: pv.v, Coef: 1})
			}
		}
		keys := make([]swLevel, 0, len(jitTerms))
		for k := range jitTerms {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].sw != keys[j].sw {
				return keys[i].sw < keys[j].sw
			}
			return keys[i].level < keys[j].level
		})
		for _, k := range keys {
			if _, err := m.prob.AddConstraint(lp.LE, float64(c.cfg.JitterQueueCap), jitTerms[k]); err != nil {
				return nil, err
			}
		}
	}

	// Objective (Eqns 1, 6, 8): normalized weighted coverage, minus λ-scaled
	// slack penalties, minus ρ-scaled path-change penalties.
	wsum := m.weightSum
	if wsum <= 0 {
		wsum = 1
	}
	for _, pid := range m.pids {
		if err := m.prob.SetObjective(m.iVar[pid], m.weights[pid]/wsum); err != nil {
			return nil, err
		}
	}
	for pid, xi := range m.xiVar {
		if err := m.prob.SetObjective(xi, -c.cfg.Lambda*m.weights[pid]/wsum); err != nil {
			return nil, err
		}
	}

	// Eqn 7: P_{i,p} = 1 − α_{i,p} for each live column. A previous path
	// that is no longer a candidate has none: its change is unavoidable.
	var alphas []int
	for _, pv := range m.pvars {
		if !pv.live {
			continue
		}
		alpha := m.prob.AddVariable(0, 1, 0)
		if _, err := m.prob.AddConstraint(lp.EQ, 1,
			[]lp.Term{{Var: pv.v, Coef: 1}, {Var: alpha, Coef: 1}}); err != nil {
			return nil, err
		}
		alphas = append(alphas, alpha)
	}
	// Eqn 8 normalizes Σα by the number of previously selected paths.
	for _, a := range alphas {
		if err := m.prob.SetObjective(a, -rho/float64(len(alphas))); err != nil {
			return nil, err
		}
	}
	return m, nil
}
