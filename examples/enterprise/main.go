// Enterprise scenario (Figs 2–5 of the paper): Marketing/Web and IT/DB
// policies with service chains contend for bandwidth; a stateful IDS
// escalation fires at runtime; an executive's laptop roams; and a policy
// modification shows how Janus localizes path changes.
package main

import (
	"context"
	"fmt"
	"log"

	"janus"
	"janus/internal/compose"
	"janus/internal/core"
	"janus/internal/policy"
	"janus/internal/runtime"
	"janus/internal/topo"
)

func main() {
	// Fig 4's topology: seven switches with two L-IDS boxes on parallel
	// segments, a byte counter, and a firewall; all links 100 Mbps.
	tp := topo.NewTopology("enterprise")
	s := map[string]topo.NodeID{}
	for _, n := range []string{"s1", "s2", "s3", "s4", "s5", "s6", "s7"} {
		s[n] = tp.AddSwitch(n)
	}
	lids1 := tp.AddNF("lids1", policy.LightIDS)
	lids2 := tp.AddNF("lids2", policy.LightIDS)
	bc := tp.AddNF("bc1", policy.ByteCounter)
	link := func(a, b topo.NodeID) { check(tp.AddLink(a, b, 100)) }
	link(s["s1"], s["s3"])
	link(s["s1"], bc)
	link(bc, s["s3"])
	link(s["s3"], lids1)
	link(lids1, s["s4"])
	link(s["s3"], s["s4"])
	link(s["s4"], s["s5"])
	link(s["s1"], s["s7"])
	link(s["s7"], lids2)
	link(lids2, s["s2"])
	link(s["s7"], s["s2"])
	link(s["s2"], s["s6"])
	link(s["s6"], s["s5"])
	link(s["s6"], s["s3"])

	check(tp.AddEndpoint("m1", s["s1"], "Nml", "Mktg"))
	check(tp.AddEndpoint("w1", s["s5"], "Nml", "Web"))
	check(tp.AddEndpoint("it1", s["s2"], "Nml", "IT"))
	check(tp.AddEndpoint("db1", s["s3"], "Nml", "DB"))

	// Fig 3's input graphs: Mktg->Web via L-IDS with a stateful H-IDS-style
	// escalation (here: reroute through the second L-IDS), and IT->DB with
	// a high minimum bandwidth.
	g1 := janus.NewPolicyGraph("policy1")
	g1.AddEPG(policy.NewEPG("Mktg", "Nml", "Mktg"))
	g1.AddEPG(policy.NewEPG("Web", "Nml", "Web"))
	g1.AddEdge(janus.Edge{Src: "Mktg", Dst: "Web", Default: true,
		Chain: janus.Chain{janus.LightIDS},
		QoS:   janus.QoS{BandwidthMbps: 20}})
	g1.AddEdge(janus.Edge{Src: "Mktg", Dst: "Web",
		Chain: janus.Chain{janus.LightIDS, janus.ByteCounter},
		QoS:   janus.QoS{BandwidthMbps: 20},
		Cond:  janus.Condition{Stateful: policy.WhenAtLeast(janus.FailedConnections, 5)}})

	g2 := janus.NewPolicyGraph("policy3")
	g2.AddEPG(policy.NewEPG("IT", "Nml", "IT"))
	g2.AddEPG(policy.NewEPG("DB", "Nml", "DB"))
	g2.AddEdge(janus.Edge{Src: "IT", Dst: "DB", QoS: janus.QoS{BandwidthMbps: 30}})

	composed, err := compose.New(nil).Compose(g1, g2)
	check(err)
	conf, err := core.New(tp, composed, core.Config{CandidatePaths: 5, Seed: 42})
	check(err)

	rt, err := runtime.New(context.Background(), conf)
	check(err)
	fmt.Printf("initial: %d/%d policies configured, %d rules installed\n",
		rt.Current().SatisfiedCount(), len(rt.Current().Configured), rt.Network().RuleCount())
	if problems := rt.Verify(); len(problems) > 0 {
		fmt.Println("verification problems:", problems)
	} else {
		fmt.Println("dataplane verification: every flow reaches its destination through its chain")
	}

	// Stateful escalation: five failed connections trip the >=5 condition
	// and the flow moves onto an escalation path, in the capacity its
	// reservation held.
	for i := 0; i < 5; i++ {
		check(rt.ReportEvent(context.Background(), "m1", "w1", janus.FailedConnections, 1))
	}
	fmt.Printf("after IDS alarm: %d stateful reroutes, %d path changes total\n",
		rt.Metrics().StatefulReroutes, rt.Metrics().PathChanges)

	// Mobility: the marketing user docks at the s6 wing.
	check(rt.MoveEndpoint(context.Background(), "m1", s["s6"]))
	fmt.Printf("after mobility: %d reconfigurations, %d path changes, satisfied %d\n",
		rt.Metrics().Reconfigurations, rt.Metrics().PathChanges,
		rt.Current().SatisfiedCount())

	// Graph churn (Fig 5): IT->DB now must pass the byte counter.
	g2b := janus.NewPolicyGraph("policy3")
	g2b.AddEPG(policy.NewEPG("IT", "Nml", "IT"))
	g2b.AddEPG(policy.NewEPG("DB", "Nml", "DB"))
	g2b.AddEdge(janus.Edge{Src: "IT", Dst: "DB",
		Chain: janus.Chain{janus.ByteCounter},
		QoS:   janus.QoS{BandwidthMbps: 30}})
	composed2, err := compose.New(nil).Compose(g1, g2b)
	check(err)
	check(rt.UpdateGraph(context.Background(), composed2, core.Config{CandidatePaths: 5, Seed: 42}))
	fmt.Printf("after policy change: satisfied %d, cumulative path changes %d, NF state transfers %d\n",
		rt.Current().SatisfiedCount(), rt.Metrics().PathChanges, rt.Metrics().NFStateTransfers)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
