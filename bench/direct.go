package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	goruntime "runtime"
	"sync/atomic"
	"time"

	"janus/internal/check"
	"janus/internal/compose"
	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/paths"
	"janus/internal/policy"
	"janus/internal/runtime"
	"janus/internal/store"
	"janus/internal/traffic"
)

// direct drives runtime.Runtime without the HTTP server in front: the
// arrivals workload runs this way because janusd has no lookup route for
// its reader, and the traced run does because the seams it times — the
// journal, the filesystem, the recompile observer — are only reachable
// from here. It journals what the server would journal for the same event.
type direct struct {
	in      *instance
	dir     string
	cfg     core.Config
	st      *store.Store
	journal runtime.Journal
	rt      *runtime.Runtime
	writers map[string]*policy.Graph
	graph   *compose.Graph
	// probes, when set, is the flow-arrival stream a reader classifies
	// beside the events; checks compares both lookups over it.
	probes []probe

	// Set on the traced run only.
	tr      *tracer
	fs      *tracedFS
	adapter *dataplane.GraphAdapter
	twin    *dataplane.Network
	solves  []solve
	shots   map[string]float64
	sent    int
}

// solve is the solver's own account of the result one event installed.
type solve struct {
	Delta bool
	Stats core.Stats
}

// bootDirect is setUp for the direct target: compose, the cold full solve
// and the first journal record. A non-nil tracer makes it the traced run.
func bootDirect(ctx context.Context, spec workloadSpec, in *instance, dir string, tr *tracer) (*direct, error) {
	d := &direct{in: in, dir: dir, cfg: solverConfig(spec.Workers), tr: tr, writers: map[string]*policy.Graph{}}
	for _, g := range in.Writers {
		d.writers[g.Name] = g
	}
	fsys := store.OSFS()
	if tr != nil {
		d.fs = &tracedFS{FS: fsys, tr: tr}
		fsys = d.fs
	}
	var err error
	if d.st, err = store.Open(fsys, dir, store.Options{SnapshotEvery: snapshotEvery}); err != nil {
		return nil, err
	}
	d.journal = d.st
	if tr != nil {
		d.journal = tracedJournal{j: d.st, tr: tr}
	}
	if d.graph, err = compose.New(nil).Compose(sortedWriters(d.writers)...); err != nil {
		return nil, err
	}
	conf, err := core.New(in.Topo, d.graph, d.cfg)
	if err != nil {
		return nil, err
	}
	if d.rt, err = runtime.New(ctx, conf); err != nil {
		return nil, err
	}
	// The snapshot source must see the runtime before the configure record
	// is appended (runtime.EnableJournal says why).
	d.st.SetSnapshotSource(func() *store.State { return d.rt.State() })
	if err := d.rt.EnableJournal(d.journal); err != nil {
		return nil, err
	}
	if tr != nil {
		net := d.rt.Network()
		net.SetRecompileObserver(func(uint64, []dataplane.Rule) {
			tr.add(spCompile, time.Duration(net.FastpathStats().LastCompileMicros*float64(time.Microsecond)), true)
		})
		// The twin starts where the real dataplane is now and from here on
		// receives each install one event late, so that planning and
		// applying event i's rules on it is the work the runtime did.
		d.adapter = dataplane.NewGraphAdapter(d.graph)
		d.twin = dataplane.NewNetwork(in.Topo)
		if err := d.twin.ApplyPlan(d.twin.PlanUpdate(dataplane.CompileRules(in.Topo, d.adapter, d.rt.Current()))); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (d *direct) send(ctx context.Context, ev event) (ack, error) {
	if d.tr != nil {
		d.tr.id = d.sent
	}
	d.sent++
	prev := d.rt.Current()
	d.tr.begin(spEvent)
	var err error
	if ev.Kind == evGraph {
		err = d.putAndConfigure(ctx, ev.Graph)
	} else {
		err = ev.apply(ctx, d.rt)
	}
	cur := d.rt.Current()
	if d.tr != nil && cur != prev {
		d.tr.add(spSolve, cur.Stats.Duration, false)
	}
	d.tr.end()
	if d.tr != nil && cur != prev && err == nil {
		d.solves = append(d.solves, solve{Delta: cur.Delta != nil, Stats: cur.Stats})
		err = d.replayLayers(cur)
	}
	return ack{Satisfied: cur.SatisfiedCount(), Policies: len(cur.Configured)}, err
}

// putAndConfigure is what janusd does for PUT /graphs/{name} followed by
// POST /configure.
func (d *direct) putAndConfigure(ctx context.Context, g *policy.Graph) error {
	d.writers[g.Name] = g
	if err := d.journal.Append(&store.Record{Kind: store.KindWriterPut, Writer: g.Name, WriterGraph: g}); err != nil {
		return err
	}
	d.tr.begin(spCompose)
	cg, err := compose.New(nil).Compose(sortedWriters(d.writers)...)
	d.tr.end()
	if err != nil {
		return err
	}
	d.graph = cg
	if d.tr != nil {
		d.adapter = dataplane.NewGraphAdapter(cg)
	}
	return d.rt.UpdateGraph(ctx, cg, d.cfg)
}

// replayLayers times the pure layer calls Runtime.install made for the
// event just applied, by making them again on the state it left: the same
// arguments give the same work, and from outside there is no other way to
// time them one by one. Rule planning and application run on the twin,
// which is still at the previous install.
func (d *direct) replayLayers(cur *core.Result) error {
	tp := d.in.Topo
	counters := d.rt.State().Counters
	d.tr.begin(spReplay)
	defer d.tr.end()

	d.tr.begin(spCompileRules)
	rules := dataplane.CompileRules(tp, d.adapter, cur)
	d.tr.end()
	d.tr.begin(spPlan)
	plan := d.twin.PlanUpdate(rules)
	d.tr.end()
	d.tr.begin(spApply)
	err := d.twin.ApplyPlan(plan)
	d.tr.end()
	if err != nil {
		return fmt.Errorf("trace: applying to the twin dataplane: %w", err)
	}
	d.tr.begin(spAudit)
	vs := check.Audit(tp, d.graph, d.rt.Network(), cur, d.rt.Hour(), counters)
	d.tr.end()
	if len(vs) > 0 {
		return fmt.Errorf("trace: audit of the installed state: %d violations, first %s", len(vs), vs[0])
	}
	d.tr.begin(spDepIndex)
	core.BuildDepIndex(tp, d.graph, cur)
	d.tr.end()
	return nil
}

func (d *direct) counters(context.Context) (serverMetrics, error) {
	var m serverMetrics
	// serverMetrics is decoded from /metrics on the HTTP side; going
	// through the same encoding here keeps one definition of the fields.
	b, err := json.Marshal(d.rt.Metrics())
	if err == nil {
		err = json.Unmarshal(b, &m)
	}
	fp := d.rt.Network().FastpathStats()
	m.Fastpath.Compiles, m.Fastpath.TotalCompileMicros = fp.Compiles, fp.TotalCompileMicros
	m.Durability.Snapshots = d.st.Stats().Snapshots
	return m, err
}

// checks are the rig's output checks without the HTTP surface: a clean
// audit, no quarantine, and a runtime restored from the journal alone
// holds the state the live one held.
func (d *direct) checks(context.Context) (store.RecoveryInfo, error) {
	var recovery store.RecoveryInfo
	if vs := d.rt.Audit(); len(vs) > 0 {
		return recovery, fmt.Errorf("check: %d audit violations, first %s", len(vs), vs[0])
	}
	if problems := d.rt.Verify(); len(problems) > 0 {
		return recovery, fmt.Errorf("check: %d flows do not reach their destination, first %s", len(problems), problems[0])
	}
	if q := d.rt.Quarantined(); len(q) != 0 {
		return recovery, fmt.Errorf("check: switches %v are quarantined", q)
	}
	if err := lookupsAgree(d.rt.Network(), d.probes); err != nil {
		return recovery, err
	}
	before, err := json.Marshal(d.rt.State())
	if err != nil {
		return recovery, err
	}
	if err := d.st.Close(); err != nil {
		return recovery, fmt.Errorf("check: closing the journal: %w", err)
	}
	if d.st, err = store.Open(store.OSFS(), d.dir, store.Options{SnapshotEvery: snapshotEvery}); err != nil {
		return recovery, fmt.Errorf("check: restart: %w", err)
	}
	restored, err := runtime.Restore(d.st.RecoveredState(), d.cfg, d.st)
	if err != nil {
		return recovery, fmt.Errorf("check: restart: %w", err)
	}
	after, err := json.Marshal(restored.State())
	if err != nil {
		return recovery, err
	}
	if !bytes.Equal(before, after) {
		return recovery, fmt.Errorf("check: restored state differs from the live state (%d bytes before, %d after)", len(before), len(after))
	}
	return d.st.RecoveryInfo(), nil
}

func (d *direct) close() error {
	err := d.st.Close()
	if rmErr := os.RemoveAll(d.dir); err == nil {
		err = rmErr
	}
	return err
}

// probe is one flow arrival to classify.
type probe struct {
	Src, Dst string
}

// genProbes draws the flow-arrival stream: four in five are a policy's own
// source and destination, the rest pair a source with another policy's
// destination, which no rule admits.
func genProbes(seed int64, n int) []probe {
	rng := rand.New(rand.NewSource(seed))
	out := make([]probe, n)
	for k := range out {
		i := rng.Intn(numPolicies)
		dst := i
		if rng.Intn(5) == 0 {
			dst = (i + 1 + rng.Intn(numPolicies-1)) % numPolicies
		}
		out[k] = probe{Src: srcName(i, rng.Intn(srcPerPolicy)), Dst: dstName(dst)}
	}
	return out
}

// The generated policies match all traffic, so any protocol and port
// classify alike.
const (
	probeProto = policy.TCP
	probePort  = 80
)

// beside is the reader, on a target that was given probes: it classifies
// the arrival stream through the compiled fast path, over and over, until
// stopped, and counts the flows it classified and the ones delivered. The
// rest — a pair no policy joins, or a policy the solver left out — end in
// an error the classifier formats afresh each time, several times the
// cost of a delivery; the share says which of the two a rate is made of.
func (d *direct) beside(_ context.Context, s *section) (stop func()) {
	if d.probes == nil {
		return func() {}
	}
	var halt atomic.Bool
	done := make(chan [2]int64, 1)
	net := d.rt.Network()
	go func() {
		var n, delivered int64
		for !halt.Load() {
			for _, p := range d.probes {
				// A miss is an answer too; agreement with the interpreted
				// lookup is checked at quiescence, not here.
				if _, err := net.FastLookup(p.Src, p.Dst, probeProto, probePort); err == nil {
					delivered++
				}
			}
			n += int64(len(d.probes))
		}
		done <- [2]int64{n, delivered}
	}()
	return func() {
		halt.Store(true)
		counts := <-done
		s.flows, s.delivered = counts[0], counts[1]
	}
}

// lookupsAgree checks, with the writer idle, that the compiled and the
// interpreted lookup classify every probe alike.
func lookupsAgree(net *dataplane.Network, probes []probe) error {
	seen := map[probe]bool{}
	for _, p := range probes {
		if seen[p] {
			continue
		}
		seen[p] = true
		fast, ferr := net.FastLookup(p.Src, p.Dst, probeProto, probePort)
		slow, serr := net.Lookup(p.Src, p.Dst, probeProto, probePort)
		if (ferr == nil) != (serr == nil) || fmt.Sprint(fast) != fmt.Sprint(slow) {
			return fmt.Errorf("check: %s->%s: compiled lookup gives %v (%v), interpreted %v (%v)", p.Src, p.Dst, fast, ferr, slow, serr)
		}
	}
	return nil
}

// oneShots times, on the state the traced run ended in, the layer calls no
// event exercises on its own or no seam exposes: path enumeration cold and
// warm, compose, both lookups, the traffic simulator and Runtime.Verify.
func (d *direct) oneShots(probes []probe) map[string]float64 {
	out := map[string]float64{}
	tp, net, cur := d.in.Topo, d.rt.Network(), d.rt.Current()

	enum := paths.NewEnumerator(tp)
	rng := rand.New(rand.NewSource(d.cfg.Seed))
	enumerate := func() time.Duration {
		start := time.Now()
		for _, p := range d.graph.Policies {
			dsts := tp.EndpointsMatching(p.Dst)
			for _, src := range tp.EndpointsMatching(p.Src) {
				for _, dst := range dsts {
					s, _ := tp.EndpointByName(src)
					t, _ := tp.EndpointByName(dst)
					// An unroutable pair yields no candidates, which is a
					// result; only the time is of interest here.
					_, _ = enum.Candidates(rng, s.Attach, t.Attach, p.AllEdges()[0].Chain, candidatePaths, 0)
				}
			}
		}
		return time.Since(start)
	}
	out["paths.cold_enumerate_ms"] = ms(enumerate())
	out["paths.warm_enumerate_us"] = ms(enumerate()) * 1e3

	start := time.Now()
	_, _ = compose.New(nil).Compose(sortedWriters(d.writers)...) // composed without error at boot
	out["compose.compose_ms"] = ms(time.Since(start))

	// Lookups are timed over delivered and undelivered probes apart: an
	// undelivered one ends in a formatted error, and a figure over both
	// would follow the share of policies satisfied, not the classifier.
	var hits, misses []probe
	for _, p := range probes {
		if _, err := net.FastLookup(p.Src, p.Dst, probeProto, probePort); err == nil {
			hits = append(hits, p)
		} else {
			misses = append(misses, p)
		}
	}
	const rounds = 20
	perLookup := func(ps []probe, lookup func(probe)) (ns, allocs float64) {
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for _, p := range ps {
				lookup(p)
			}
		}
		took := time.Since(start)
		goruntime.ReadMemStats(&m1)
		n := float64(rounds * len(ps))
		return ratio(float64(took), n), ratio(float64(m1.Mallocs-m0.Mallocs), n)
	}
	// Only the time and the allocations are of interest; lookupsAgree
	// checks the answers.
	slow := func(p probe) { _, _ = net.Lookup(p.Src, p.Dst, probeProto, probePort) }
	fast := func(p probe) { _, _ = net.FastLookup(p.Src, p.Dst, probeProto, probePort) }
	out["dataplane.lookup_ns"], _ = perLookup(hits, slow)
	out["fastpath.lookup_ns"], out["fastpath.allocs_per_lookup"] = perLookup(hits, fast)
	out["fastpath.miss_ns"], _ = perLookup(misses, fast)

	var flows []traffic.Flow
	for _, a := range cur.Assignments {
		if a.Role == core.HardEdge {
			flows = append(flows, traffic.Flow{Src: a.Src, Dst: a.Dst, Proto: probeProto, Port: probePort, DemandMbps: a.BW})
		}
	}
	start = time.Now()
	_, _ = traffic.Simulate(tp, net, flows) // only timed; checks() verifies forwarding
	out["traffic.simulate_flows_per_s"] = ratio(float64(len(flows)), time.Since(start).Seconds())

	start = time.Now()
	d.rt.Verify()
	out["runtime.verify_ms"] = ms(time.Since(start))
	return out
}
