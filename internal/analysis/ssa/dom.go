package ssa

import "janus/internal/analysis/cfg"

// DomTree is the dominator tree over the reachable blocks of one
// control-flow graph, built with the iterative Cooper-Harvey-Kennedy
// algorithm over a reverse-postorder numbering. Unreachable blocks (code
// after return/break) have no dominator information; Idom returns nil for
// them and every other query treats them as absent.
type DomTree struct {
	idom     map[*cfg.Block]*cfg.Block
	children map[*cfg.Block][]*cfg.Block
	order    map[*cfg.Block]int // reverse-postorder number, reachable blocks only
	rpo      []*cfg.Block
}

// Dominators computes the dominator tree of g.
func Dominators(g *cfg.Graph) *DomTree {
	rpo := g.ReversePostorder()
	order := make(map[*cfg.Block]int, len(rpo))
	for i, b := range rpo {
		order[b] = i
	}
	idom := map[*cfg.Block]*cfg.Block{g.Entry: g.Entry}

	intersect := func(a, b *cfg.Block) *cfg.Block {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var ni *cfg.Block
			for _, p := range b.Preds {
				if _, ok := idom[p]; !ok {
					continue // unreachable pred, or not yet processed
				}
				if ni == nil {
					ni = p
				} else {
					ni = intersect(ni, p)
				}
			}
			if ni != nil && idom[b] != ni {
				idom[b] = ni
				changed = true
			}
		}
	}

	d := &DomTree{idom: idom, children: map[*cfg.Block][]*cfg.Block{}, order: order, rpo: rpo}
	for _, b := range rpo {
		if b == g.Entry {
			continue
		}
		if p := idom[b]; p != nil {
			d.children[p] = append(d.children[p], b)
		}
	}
	return d
}

// Idom returns b's immediate dominator, or nil for the entry block and for
// unreachable blocks.
func (d *DomTree) Idom(b *cfg.Block) *cfg.Block {
	p := d.idom[b]
	if p == b {
		return nil
	}
	return p
}

// Children returns the blocks whose immediate dominator is b, in
// reverse-postorder.
func (d *DomTree) Children(b *cfg.Block) []*cfg.Block { return d.children[b] }

// Reachable reports whether b is reachable from the graph entry.
func (d *DomTree) Reachable(b *cfg.Block) bool {
	_, ok := d.order[b]
	return ok
}

// Frontier computes the dominance frontier of every reachable block: DF(n)
// holds the blocks where n's dominance ends — the join points that need a
// phi for any variable defined in n.
func (d *DomTree) Frontier() map[*cfg.Block][]*cfg.Block {
	df := map[*cfg.Block][]*cfg.Block{}
	seen := map[*cfg.Block]map[*cfg.Block]bool{}
	for _, b := range d.rpo {
		preds := 0
		for _, p := range b.Preds {
			if d.Reachable(p) {
				preds++
			}
		}
		if preds < 2 {
			continue
		}
		for _, p := range b.Preds {
			if !d.Reachable(p) {
				continue
			}
			for runner := p; runner != nil && runner != d.idom[b]; runner = d.Idom(runner) {
				if seen[runner] == nil {
					seen[runner] = map[*cfg.Block]bool{}
				}
				if !seen[runner][b] {
					seen[runner][b] = true
					df[runner] = append(df[runner], b)
				}
			}
		}
	}
	return df
}
