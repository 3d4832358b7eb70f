// Command janus composes intent policy graphs and configures them onto a
// topology, printing the resulting path assignments and link usage.
//
// Usage:
//
//	janus -topo topology.json -policies p1.policy,p2.json [-paths 5] [-period 0] [-temporal]
//
// The topology file uses the internal/topo JSON schema: nodes, links
// ("from", "to", "capacityMbps") and labelled endpoints ("attach" is the
// switch node ID). Policy files ending in .json use the policy-graph JSON
// schema; any other extension is parsed as the intent language
// (internal/intent).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"janus"
	"janus/internal/intent"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "janus:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("janus", flag.ContinueOnError)
	topoPath := fs.String("topo", "", "topology JSON file (required)")
	policyPaths := fs.String("policies", "", "comma-separated policy graph JSON files (required)")
	candidatePaths := fs.Int("paths", 5, "candidate paths per endpoint pair (0 = full ILP)")
	period := fs.Int("period", 0, "hour of day to configure (ignored with -temporal)")
	temporal := fs.Bool("temporal", false, "run the greedy temporal chain over all periods")
	seed := fs.Int64("seed", 1, "random seed for candidate selection")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *topoPath == "" || *policyPaths == "" {
		fs.Usage()
		return fmt.Errorf("-topo and -policies are required")
	}

	var tp janus.Topology
	if err := readJSON(*topoPath, &tp); err != nil {
		return err
	}
	// Decoding checks structure only; input topologies must also be
	// connected (a disconnected one is legal solely as recovered runtime
	// state after a quarantine).
	if err := tp.Validate(); err != nil {
		return fmt.Errorf("%s: %w", *topoPath, err)
	}
	var graphs []*janus.PolicyGraph
	for _, path := range strings.Split(*policyPaths, ",") {
		path = strings.TrimSpace(path)
		if strings.HasSuffix(path, ".json") {
			var g janus.PolicyGraph
			if err := readJSON(path, &g); err != nil {
				return err
			}
			graphs = append(graphs, &g)
			continue
		}
		// Anything else is the intent language (see internal/intent).
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		g, err := intent.Parse(string(data))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		graphs = append(graphs, g)
	}

	composed, err := janus.Compose(nil, graphs...)
	if err != nil {
		return err
	}
	printf(out, "composed %d policies from %d graphs\n", len(composed.Policies), len(graphs))
	for _, c := range composed.Conflicts {
		printf(out, "conflict: %s\n", c)
	}

	conf, err := janus.NewConfigurator(&tp, composed, janus.Config{
		CandidatePaths: *candidatePaths,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}

	if *temporal {
		tr, err := conf.ConfigureTemporal()
		if err != nil {
			return err
		}
		printf(out, "periods: %v, total configured: %d, cross-period path changes: %d\n",
			tr.Periods, tr.TotalConfigured, tr.PathChanges)
		for _, res := range tr.Results {
			printResult(out, composed, res)
		}
		return nil
	}
	res, err := conf.Configure(*period)
	if err != nil {
		return err
	}
	printResult(out, composed, res)
	return nil
}

func printResult(out *os.File, g *janus.ComposedGraph, res *janus.Result) {
	printf(out, "\n=== period %dh: %d/%d policies configured (objective %.4f, %v) ===\n",
		res.Period, res.SatisfiedCount(), len(res.Configured), res.Objective, res.Stats.Duration)
	ids := make([]int, 0, len(res.Configured))
	for pid := range res.Configured {
		ids = append(ids, pid)
	}
	sort.Ints(ids)
	for _, pid := range ids {
		p := g.PolicyByID(pid)
		status := "VIOLATED"
		if res.Configured[pid] {
			status = "configured"
		}
		printf(out, "policy %d (%s -> %s): %s\n", pid, p.Src.Name, p.Dst.Name, status)
	}
	for _, a := range res.Assignments {
		role := "hard"
		if a.Role != 0 {
			role = "reserved"
		}
		printf(out, "  p%d %s->%s [%s] path %s (%.1f Mbps)\n",
			a.Policy, a.Src, a.Dst, role, a.Path.Key(), a.BW)
	}
	if bn := res.Bottlenecks(); len(bn) > 0 {
		printf(out, "bottleneck links (by shadow price):\n")
		for i, l := range bn {
			if i >= 5 {
				break
			}
			printf(out, "  %d->%d: %.1f/%.1f Mbps reserved, shadow price %.4f\n",
				l.From, l.To, l.Reserved, l.Capacity, l.ShadowPrice)
		}
	}
}

// printf writes best-effort display output, visibly discarding the write
// error: there is nothing useful to do when stdout is gone.
func printf(out *os.File, format string, args ...any) {
	_, _ = fmt.Fprintf(out, format, args...)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}
