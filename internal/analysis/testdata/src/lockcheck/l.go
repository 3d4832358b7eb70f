// Package lockcheck is a januslint fixture for lockorder's guard rule: lines
// marked "want lockorder" must be reported.
package lockcheck

import "sync"

type counter struct {
	name string // immutable after construction: declared above mu

	mu sync.Mutex
	n  int
}

func (c *counter) Name() string { return c.name } // ok: unguarded field

func (c *counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++ // ok: mu held
}

func (c *counter) Peek() int {
	return c.n // want lockorder
}

func (c *counter) peekLocked() int { return c.n } // ok: caller-holds-lock convention

func (c *counter) Reset() {
	c.n = 0 //janus:allow(lockorder): fixture: demonstrates suppression
}

type gauge struct {
	mu sync.RWMutex
	v  float64
}

func (g *gauge) Read() float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.v // ok: read lock held
}

func (g *gauge) Set(v float64) {
	g.v = v // want lockorder
}

// ReadEarly reads n before it takes mu.
func (c *counter) ReadEarly() int {
	v := c.n // want lockorder
	c.mu.Lock()
	defer c.mu.Unlock()
	return v + c.n
}

// ReadAfterUnlock reads n after it has released mu.
func (c *counter) ReadAfterUnlock() int {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return c.n // want lockorder
}

// pair has two mutexes: amu guards a, and bmu guards b.
type pair struct {
	amu sync.Mutex
	a   int
	bmu sync.Mutex
	b   int
}

func (p *pair) SetA(v int) {
	p.amu.Lock()
	defer p.amu.Unlock()
	p.a = v // ok: amu held
}

func (p *pair) GetB() int {
	p.bmu.Lock()
	defer p.bmu.Unlock()
	return p.b // ok: bmu held
}

func (p *pair) SetB(v int) {
	p.amu.Lock()
	defer p.amu.Unlock()
	p.b = v // want lockorder
}
