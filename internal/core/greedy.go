package core

import (
	"sort"

	"janus/internal/topo"
)

// greedyStart constructs a feasible 0/1 assignment for the model by
// admitting policies in descending weight order and routing each endpoint
// pair on the candidate path with the most residual headroom. It is the
// MIP start fed to branch and bound: a strong initial incumbent lets the
// solver prune aggressively from the first node, which matters because the
// random-candidate models of §5.2 have weak LP bounds.
//
// Path selection prefers each slot's live column, its previous path, so the
// start also scores well on the path-change penalty (Eqn 7–8).
func greedyStart(m *model) map[int]float64 {
	start := make(map[int]float64, len(m.integers))
	for _, v := range m.integers {
		start[v] = 0
	}
	// Residual capacity per directed link.
	residual := make(map[[2]topo.NodeID]float64, len(m.linkCap))
	for l, capacity := range m.linkCap {
		residual[l] = capacity
	}

	// Group path variables by policy, then by convexity row (edge, pair).
	type rowKey struct {
		edgeIdx  int
		src, dst string
	}
	type polGroup struct {
		pid  int
		hard map[rowKey][]*pathVar
		soft map[rowKey][]*pathVar
	}
	groups := make(map[int]*polGroup, len(m.pids))
	for i := range m.pvars {
		pv := &m.pvars[i]
		g, ok := groups[pv.pid]
		if !ok {
			g = &polGroup{pid: pv.pid, hard: map[rowKey][]*pathVar{}, soft: map[rowKey][]*pathVar{}}
			groups[pv.pid] = g
		}
		k := rowKey{pv.edgeIdx, pv.src, pv.dst}
		if pv.role == HardEdge {
			g.hard[k] = append(g.hard[k], pv)
		} else {
			g.soft[k] = append(g.soft[k], pv)
		}
	}

	// Policies in descending weight, ties by ID for determinism.
	order := append([]int(nil), m.pids...)
	sort.Slice(order, func(i, j int) bool {
		wi, wj := m.weights[order[i]], m.weights[order[j]]
		if wi != wj { //janus:allow(floatcmp): sort comparator needs exact ordering; epsilon ties would break transitivity
			return wi > wj
		}
		return order[i] < order[j]
	})

	// tryRows picks one path per row that fits the residuals; on success it
	// returns the picks and the updated residuals are committed by the
	// caller via apply.
	tryRows := func(rows map[rowKey][]*pathVar, res map[[2]topo.NodeID]float64) ([]*pathVar, bool) {
		keys := make([]rowKey, 0, len(rows))
		for k := range rows {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.edgeIdx != b.edgeIdx {
				return a.edgeIdx < b.edgeIdx
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.dst < b.dst
		})
		picks := make([]*pathVar, 0, len(keys))
		for _, k := range keys {
			var best *pathVar
			bestScore := -1.0
			for _, pv := range rows[k] {
				if !fits(pv, res) {
					continue
				}
				score := headroom(pv, res)
				// Strongly prefer the previously used path (Eqn 7).
				if pv.live {
					score += 1e12
				}
				if score > bestScore {
					best, bestScore = pv, score
				}
			}
			if best == nil {
				return nil, false
			}
			reserve(best, res)
			picks = append(picks, best)
		}
		return picks, true
	}

	for _, pid := range order {
		if m.unconfigurable[pid] {
			continue // an empty hard row forces I = 0 (Eqn 2)
		}
		g, ok := groups[pid]
		if !ok {
			// A policy whose active edges produced no path variables (e.g.
			// every pair has zero candidates) cannot be admitted.
			continue
		}
		if len(g.hard) == 0 {
			continue
		}
		// Tentatively route the hard rows on a copy of the residuals; a
		// failed attempt leaves the committed residuals untouched.
		trial := copyResiduals(residual)
		picks, ok := tryRows(g.hard, trial)
		if !ok {
			continue
		}
		// Soft reservation is all-or-nothing per policy (ξ_i is shared):
		// attempt it on a further copy and keep it only if every soft row
		// fits.
		var softPicks []*pathVar
		if len(g.soft) > 0 {
			softTrial := copyResiduals(trial)
			if sp, softOK := tryRows(g.soft, softTrial); softOK {
				softPicks = sp
				trial = softTrial
			}
		}
		residual = trial
		start[m.iVar[pid]] = 1
		for _, pv := range picks {
			start[pv.v] = 1
		}
		for _, pv := range softPicks {
			start[pv.v] = 1
		}
	}
	return start
}

func fits(pv *pathVar, residual map[[2]topo.NodeID]float64) bool {
	if pv.bw <= 0 {
		return true
	}
	for _, l := range pv.path.Links() {
		if !fitsEps(residual[l], pv.bw) {
			return false
		}
	}
	return true
}

// headroom scores a candidate by its minimum post-reservation residual:
// preferring paths that leave the most slack spreads load (the
// edge-disjointedness intuition of §5.2).
func headroom(pv *pathVar, residual map[[2]topo.NodeID]float64) float64 {
	minResid := 1e18
	for _, l := range pv.path.Links() {
		r := residual[l] - pv.bw
		if r < minResid {
			minResid = r
		}
	}
	if len(pv.path.Links()) == 0 {
		return 0
	}
	// Shorter paths win ties: they consume less total capacity.
	return minResid - float64(pv.path.Hops())*1e-3
}

func reserve(pv *pathVar, residual map[[2]topo.NodeID]float64) {
	if pv.bw <= 0 {
		return
	}
	for _, l := range pv.path.Links() {
		residual[l] -= pv.bw
	}
}

func copyResiduals(in map[[2]topo.NodeID]float64) map[[2]topo.NodeID]float64 {
	out := make(map[[2]topo.NodeID]float64, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}
