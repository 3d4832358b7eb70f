package main

import (
	"fmt"
	"math/rand"

	"janus/internal/paths"
	"janus/internal/policy"
	"janus/internal/topo"
	"janus/internal/workload"
)

// The §7 generator parameters every workload shares: 50 policies with two
// source endpoints and one destination each, 0–2 NFs, 10–30 Mbps, NFs on
// 20 % of switches, four time periods and no stateful edges (README.md,
// "Stateful edges", says why).
const (
	numPolicies  = 50
	srcPerPolicy = 2
	minBW, maxBW = 10.0, 30.0
	maxNFs       = 2
	nfFraction   = 0.2
	nfLinkMbps   = 1000.0
	timePeriods  = 4
)

// instanceSeed draws the network every workload runs on: NF placement,
// endpoints, the 50 policies. --seed draws only the event, graph-op and
// flow-arrival streams, because a run must be comparable with the next
// seed's run: how many of a random instance's policies fit varies by a
// fifth between instances, and a benchmark whose seeds are different
// networks has no steady number to regress against.
const instanceSeed = 1

// instance is one generated network: the topology with NF boxes and
// endpoints placed, and the writer graphs that are PUT to janusd one by
// one. workload.GenerateOn draws the same instance from the same seed but
// returns only the composed graph, so the draw order below follows it
// call for call (TestInstanceMatchesWorkloadGenerator holds the two
// together).
type instance struct {
	Topo    *topo.Topology
	Writers []*policy.Graph
	// Chains and BaseBW are the per-policy draws, kept so graph-churn can
	// rebuild a writer graph with a new bandwidth.
	Chains []policy.Chain
	BaseBW []float64
}

func srcName(i, e int) string { return fmt.Sprintf("p%d-e%d", i, e) }
func dstName(i int) string    { return fmt.Sprintf("p%d-dst", i) }
func srcLabel(i int) string   { return fmt.Sprintf("G%d-src", i) }
func writerName(i int) string { return fmt.Sprintf("writer%d", i) }

// genInstance draws the instance of a seed. statefulEdges, 0 in every
// workload, adds that many escalation edges per policy the way
// workload.Spec.StatefulEdges does; README.md, "Stateful edges", says what
// happens then.
func genInstance(topoName string, seed int64, statefulEdges int) (*instance, error) {
	tp, err := topo.Zoo(topoName)
	if err != nil {
		return nil, fmt.Errorf("gen: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	if err := tp.PlaceNFs(rng, workload.NFPool, nfFraction, nfLinkMbps); err != nil {
		return nil, fmt.Errorf("gen: %w", err)
	}
	switches := tp.NodesOfKind(topo.Switch, "")
	enum := paths.NewEnumerator(tp)
	in := &instance{Topo: tp}
	for i := 0; i < numPolicies; i++ {
		pairs := make([][2]topo.NodeID, srcPerPolicy)
		for e := 0; e < srcPerPolicy; e++ {
			at := switches[rng.Intn(len(switches))]
			if err := tp.AddEndpoint(srcName(i, e), at, srcLabel(i)); err != nil {
				return nil, fmt.Errorf("gen: %w", err)
			}
			pairs[e][0] = at
		}
		dstAt := switches[rng.Intn(len(switches))]
		if err := tp.AddEndpoint(dstName(i), dstAt, fmt.Sprintf("G%d-dst", i)); err != nil {
			return nil, fmt.Errorf("gen: %w", err)
		}
		for e := range pairs {
			pairs[e][1] = dstAt
		}
		bw := minBW + rng.Float64()*(maxBW-minBW)
		chain := routableChain(enum, pairs, randomChain(rng))
		g := writerGraph(i, chain, bw)
		for s := 0; s < statefulEdges; s++ {
			esc := randomChain(rng)
			if len(esc) == 0 {
				esc = policy.Chain{workload.NFPool[rng.Intn(len(workload.NFPool))]}
			}
			g.AddEdge(policy.Edge{
				Src: "Src", Dst: "Dst",
				Chain: routableChain(enum, pairs, esc),
				QoS:   policy.QoS{BandwidthMbps: bw},
				Cond:  policy.Condition{Stateful: policy.WhenAtLeast(policy.FailedConnections, 4*(s+1)+1)},
			})
		}
		in.Chains = append(in.Chains, chain)
		in.BaseBW = append(in.BaseBW, bw)
		in.Writers = append(in.Writers, g)
	}
	return in, nil
}

// writerGraph is policy i's graph in the Fig 6 style: one edge per
// equal-width daily window, the policy's peak window asking for double.
func writerGraph(i int, chain policy.Chain, bw float64) *policy.Graph {
	g := policy.NewGraph(writerName(i))
	peak := i % timePeriods
	width := policy.HoursPerDay / timePeriods
	for w := 0; w < timePeriods; w++ {
		bwW := bw
		if w == peak {
			bwW = 2 * bw
		}
		g.AddEdge(policy.Edge{
			Src: "Src", Dst: "Dst",
			Chain:   chain,
			QoS:     policy.QoS{BandwidthMbps: bwW},
			Cond:    policy.Condition{Window: policy.TimeWindow{Start: w * width, End: (w + 1) * width % policy.HoursPerDay}},
			Default: w == 0,
		})
	}
	g.AddEPG(policy.NewEPG("Src", srcLabel(i)))
	g.AddEPG(policy.NewEPG("Dst", fmt.Sprintf("G%d-dst", i)))
	return g
}

// randomChain draws 0..maxNFs distinct NF kinds.
func randomChain(rng *rand.Rand) policy.Chain {
	n := rng.Intn(maxNFs + 1)
	if n == 0 {
		return nil
	}
	perm := rng.Perm(len(workload.NFPool))
	chain := make(policy.Chain, 0, n)
	for i := 0; i < n; i++ {
		chain = append(chain, workload.NFPool[perm[i]])
	}
	return chain
}

// routableChain trims the chain until every pair has a valid path for it:
// an intent no placement can route would measure a routing accident, not
// contention.
func routableChain(enum *paths.Enumerator, pairs [][2]topo.NodeID, chain policy.Chain) policy.Chain {
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
