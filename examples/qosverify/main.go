// QoS verification: configure bandwidth policies, install them into the
// simulated dataplane, then offer MORE traffic than the network can carry
// and verify with the flow-level simulator that every configured policy
// still receives its guaranteed bandwidth while best-effort traffic shares
// the leftovers max-min fairly — the end-to-end property behind the
// paper's queue-based QoS enforcement (§6).
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
	"janus/internal/traffic"
)

func main() {
	// A 200 Mbps backbone between two sites.
	tp := topo.NewTopology("qosverify")
	a := tp.AddSwitch("a")
	b := tp.AddSwitch("b")
	check(tp.AddLink(a, b, 200))
	check(tp.AddEndpoint("video", a, "Video"))
	check(tp.AddEndpoint("voip", a, "VoIP"))
	check(tp.AddEndpoint("backup", a, "Backup"))
	check(tp.AddEndpoint("web", a, "WebUsers"))
	check(tp.AddEndpoint("dc", b, "DC"))

	// Two guaranteed policies and two best-effort ones.
	graphs := []*janus.PolicyGraph{
		graph("video-qos", "Video", janus.QoS{BandwidthMbps: 90}),
		graph("voip-qos", "VoIP", janus.QoS{BandwidthMbps: 30}),
		graph("backup", "Backup", janus.QoS{}),
		graph("web", "WebUsers", janus.QoS{}),
	}
	cg, err := compose.New(nil).Compose(graphs...)
	check(err)
	conf, err := core.New(tp, cg, core.Config{})
	check(err)
	// The runtime solves, installs the rules, and self-audits them.
	rt, err := runtime.New(context.Background(), conf)
	check(err)
	res, net := rt.Current(), rt.Network()
	fmt.Printf("configured %d/%d policies\n", res.SatisfiedCount(), len(res.Configured))

	// Offer 400 Mbps onto the 200 Mbps link.
	sim, err := traffic.Simulate(tp, net, []traffic.Flow{
		{Src: "video", Dst: "dc", Proto: policy.TCP, Port: 80, DemandMbps: 120},
		{Src: "voip", Dst: "dc", Proto: policy.TCP, Port: 80, DemandMbps: 30},
		{Src: "backup", Dst: "dc", Proto: policy.TCP, Port: 80, DemandMbps: 150},
		{Src: "web", Dst: "dc", Proto: policy.TCP, Port: 80, DemandMbps: 100},
	})
	check(err)

	fmt.Println("offered 400 Mbps onto a 200 Mbps link:")
	for _, al := range sim.Allocations {
		kind := "best-effort"
		if al.ReservedMbps > 0 {
			kind = fmt.Sprintf("guaranteed %.0f Mbps", al.ReservedMbps)
		}
		fmt.Printf("  %-7s demand %.0f -> rate %6.1f Mbps  (%s)\n",
			al.Flow.Src, al.Flow.DemandMbps, al.RateMbps, kind)
	}
	if v := sim.GuaranteeViolations(); len(v) == 0 {
		fmt.Println("all bandwidth guarantees held under 2x overload")
	} else {
		fmt.Printf("GUARANTEE VIOLATIONS: %+v\n", v)
	}
	for _, l := range sim.Links {
		fmt.Printf("  link %d->%d carried %.1f/%.1f Mbps\n", l.From, l.To, l.Carried, l.Capacity)
	}
}

func graph(name, src string, qos janus.QoS) *janus.PolicyGraph {
	g := janus.NewPolicyGraph(name)
	g.AddEdge(janus.Edge{Src: src, Dst: "DC", QoS: qos})
	return g
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
