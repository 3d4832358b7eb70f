// Package workload generates the synthetic policy datasets of the paper's
// evaluation (§7): "each policy can be randomly assigned 0 to 2 NFs and a
// QoS bandwidth requirement between 10 to 30 Mbps. In all our experiments,
// we randomly attach different endpoints and NFs to different nodes in the
// network. We also randomly assign different NFs to 10-30% of nodes."
//
// All generation is seeded and deterministic.
package workload

import (
	"fmt"
	"math/rand"

	"janus/internal/compose"
	"janus/internal/paths"
	"janus/internal/policy"
	"janus/internal/topo"
)

// NFPool is the middlebox kinds the generator draws service chains from.
var NFPool = []policy.NFKind{
	policy.Firewall,
	policy.LoadBalance,
	policy.LightIDS,
	policy.ByteCounter,
}

const (
	// maxNFs bounds the service-chain length: §7 assigns each policy 0 to 2
	// NFs.
	maxNFs = 2
	// nfNodeFraction is the fraction of switches carrying NF boxes: §7
	// assigns NFs to 10–30% of nodes; 0.2 is the middle of that range.
	nfNodeFraction = 0.2
	// nfLinkCapacity is the capacity of switch–NF attachment links in Mbps,
	// large enough that NF links, which §7 does not size, are not an
	// artificial bottleneck.
	nfLinkCapacity = 1000
)

// Spec parameterizes a generated workload.
type Spec struct {
	// Policies is the number of group policies.
	Policies int
	// EndpointsPerPolicy is the number of source endpoints per policy;
	// each policy gets one destination endpoint, so this equals the number
	// of <src,dst> pairs (the paper's "endpoints belonging to each
	// policy").
	EndpointsPerPolicy int
	// MinBW and MaxBW bound the per-policy bandwidth requirement in Mbps;
	// zero means the paper's 10–30 Mbps.
	MinBW, MaxBW float64
	// Seed drives all randomness.
	Seed int64

	// PriorityClasses, when non-empty, splits policies evenly across
	// weight classes (§7.5 uses {8,4,2}).
	PriorityClasses []float64
	// TimePeriods, when > 1, makes every policy temporal in the Fig 6
	// style: one edge per equal-width daily window with the bandwidth
	// requirement varying by window (a per-policy "peak" window asks for
	// double). Policies therefore span all periods — path persistence
	// across period boundaries is possible and the §5.5 greedy chain has
	// something to preserve.
	TimePeriods int
	// StatefulEdges adds this many non-default escalation edges per policy
	// (§7.3 uses 2), each requiring one extra NF.
	StatefulEdges int
}

func (s Spec) withDefaults() Spec {
	if s.MinBW == 0 {
		s.MinBW = 10
	}
	if s.MaxBW == 0 {
		s.MaxBW = 30
	}
	return s
}

// Workload is a generated evaluation scenario: the topology (with endpoints
// and NF boxes placed) and the composed policy graph.
type Workload struct {
	Topo  *topo.Topology
	Graph *compose.Graph
	Spec  Spec
}

// Generate builds a workload on the named Zoo-equivalent topology.
func Generate(topoName string, spec Spec) (*Workload, error) {
	tp, err := topo.Zoo(topoName)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return GenerateOn(tp, spec)
}

// GenerateOn builds a workload on an existing topology (NFs and endpoints
// are added to it).
func GenerateOn(tp *topo.Topology, spec Spec) (*Workload, error) {
	spec = spec.withDefaults()
	if spec.Policies <= 0 {
		return nil, fmt.Errorf("workload: Policies must be positive")
	}
	if spec.EndpointsPerPolicy <= 0 {
		return nil, fmt.Errorf("workload: EndpointsPerPolicy must be positive")
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	if err := tp.PlaceNFs(rng, NFPool, nfNodeFraction, nfLinkCapacity); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	switches := tp.NodesOfKind(topo.Switch, "")
	enum := paths.NewEnumerator(tp)

	var graphs []*policy.Graph
	for i := 0; i < spec.Policies; i++ {
		srcLabel := fmt.Sprintf("G%d-src", i)
		dstLabel := fmt.Sprintf("G%d-dst", i)
		// Source endpoints spread across random switches; one destination.
		for e := 0; e < spec.EndpointsPerPolicy; e++ {
			name := fmt.Sprintf("p%d-e%d", i, e)
			at := switches[rng.Intn(len(switches))]
			if err := tp.AddEndpoint(name, at, srcLabel); err != nil {
				return nil, fmt.Errorf("workload: %w", err)
			}
		}
		dstName := fmt.Sprintf("p%d-dst", i)
		if err := tp.AddEndpoint(dstName, switches[rng.Intn(len(switches))], dstLabel); err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}

		g := policy.NewGraph(fmt.Sprintf("writer%d", i))
		if len(spec.PriorityClasses) > 0 {
			g.Weight = spec.PriorityClasses[i%len(spec.PriorityClasses)]
		}
		bw := spec.MinBW + rng.Float64()*(spec.MaxBW-spec.MinBW)
		chain := routableChain(enum, tp, pairsOfPolicy(tp, i, spec.EndpointsPerPolicy), randomChain(rng))
		if spec.TimePeriods > 1 {
			// Fig 6 style: the policy spans the whole day; its bandwidth
			// peaks in one window (round-robin across policies so every
			// period is somebody's peak).
			peak := i % spec.TimePeriods
			for w := 0; w < spec.TimePeriods; w++ {
				bwW := bw
				if w == peak {
					bwW = 2 * bw
				}
				g.AddEdge(policy.Edge{
					Src: "Src", Dst: "Dst",
					Chain:   chain,
					QoS:     policy.QoS{BandwidthMbps: bwW},
					Cond:    policy.Condition{Window: periodWindow(w, spec.TimePeriods)},
					Default: w == 0,
				})
			}
		} else {
			g.AddEdge(policy.Edge{
				Src: "Src", Dst: "Dst",
				Chain:   chain,
				QoS:     policy.QoS{BandwidthMbps: bw},
				Default: true,
			})
		}
		for s := 0; s < spec.StatefulEdges; s++ {
			esc := randomChain(rng)
			if len(esc) == 0 {
				esc = policy.Chain{NFPool[rng.Intn(len(NFPool))]}
			}
			esc = routableChain(enum, tp, pairsOfPolicy(tp, i, spec.EndpointsPerPolicy), esc)
			g.AddEdge(policy.Edge{
				Src: "Src", Dst: "Dst",
				Chain: esc,
				QoS:   policy.QoS{BandwidthMbps: bw},
				Cond: policy.Condition{
					Stateful: policy.WhenAtLeast(policy.FailedConnections, 4*(s+1)+1),
				},
			})
		}
		// Bind graph-local EPG names to the global labels.
		g.AddEPG(policy.NewEPG("Src", srcLabel))
		g.AddEPG(policy.NewEPG("Dst", dstLabel))
		graphs = append(graphs, g)
	}

	cg, err := compose.New(nil).Compose(graphs...)
	if err != nil {
		return nil, fmt.Errorf("workload: composing: %w", err)
	}
	return &Workload{Topo: tp, Graph: cg, Spec: spec}, nil
}

// pairsOfPolicy returns the attachment-switch pairs of policy i's
// endpoints (the generator names them deterministically).
func pairsOfPolicy(tp *topo.Topology, i, eps int) [][2]topo.NodeID {
	dst, ok := tp.EndpointByName(fmt.Sprintf("p%d-dst", i))
	if !ok {
		return nil
	}
	out := make([][2]topo.NodeID, 0, eps)
	for e := 0; e < eps; e++ {
		src, ok := tp.EndpointByName(fmt.Sprintf("p%d-e%d", i, e))
		if !ok {
			continue
		}
		out = append(out, [2]topo.NodeID{src.Attach, dst.Attach})
	}
	return out
}

// routableChain verifies every endpoint pair has at least one valid path
// for the chain, trimming it (then dropping it) otherwise. Policy writers
// fix unsatisfiable intents; keeping them in the workload would make
// rejections reflect routing accidents rather than contention (§7.5
// measures the latter).
func routableChain(enum *paths.Enumerator, tp *topo.Topology, pairs [][2]topo.NodeID, chain policy.Chain) policy.Chain {
	for len(chain) > 0 {
		ok := true
		for _, pr := range pairs {
			got, err := enum.Valid(pr[0], pr[1], chain)
			if err != nil || len(got) == 0 {
				ok = false
				break
			}
		}
		if ok {
			return chain
		}
		chain = chain[:len(chain)-1]
	}
	return nil
}

// randomChain draws 0..maxNFs distinct NF kinds.
func randomChain(rng *rand.Rand) policy.Chain {
	n := rng.Intn(maxNFs + 1)
	if n == 0 {
		return nil
	}
	perm := rng.Perm(len(NFPool))
	chain := make(policy.Chain, 0, n)
	for i := 0; i < n && i < len(NFPool); i++ {
		chain = append(chain, NFPool[perm[i]])
	}
	return chain
}

// periodWindow returns the k-th of n equal-width daily windows.
func periodWindow(k, n int) policy.TimeWindow {
	width := policy.HoursPerDay / n
	start := k * width
	end := start + width
	if k == n-1 {
		end = 0 // last window wraps to midnight
	}
	return policy.TimeWindow{Start: start, End: end % policy.HoursPerDay}
}

// MoveRandomEndpoints relocates n random endpoints to random switches
// (the endpoint-change workload of Fig 14). Returns the names moved.
func (w *Workload) MoveRandomEndpoints(rng *rand.Rand, n int) []string {
	switches := w.Topo.NodesOfKind(topo.Switch, "")
	eps := w.Topo.Endpoints
	if len(eps) == 0 {
		return nil
	}
	moved := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ep := eps[rng.Intn(len(eps))]
		to := switches[rng.Intn(len(switches))]
		if err := w.Topo.MoveEndpoint(ep.Name, to); err == nil {
			moved = append(moved, ep.Name)
		}
	}
	return moved
}
