// Package ctxleakip is a januslint fixture for the interprocedural half of
// the ctxleak analyzer: lines marked "want ctxleak" must be reported when
// the blocking operation sits one or more calls deep behind the goroutine.
package ctxleakip

import "context"

// blockForever blocks on a bare channel receive.
func blockForever(ch chan int) {
	<-ch
}

// wrapper hides the blocking receive one call deep.
func wrapper(ch chan int) {
	blockForever(ch)
}

func spawnWrapped(ch chan int) {
	go wrapper(ch) // want ctxleak
}

// spawnDirect blocks in the goroutine's own body, the first node of its
// call closure.
func spawnDirect(ch chan int) {
	go blockForever(ch) // want ctxleak
}

type pump struct{ ch chan int }

func (p *pump) run() { p.drain() }

func (p *pump) drain() {
	for range p.ch {
	}
}

func startPump(p *pump) {
	go p.run() // want ctxleak
}

// runDone selects on a done channel: cancellable, clean.
func (p *pump) runDone(done chan struct{}) {
	select {
	case <-done:
	case v := <-p.ch:
		_ = v
	}
}

func startDone(p *pump, done chan struct{}) {
	go p.runDone(done)
}

// ctxWrapper threads a context through the call chain: clean.
func ctxWrapper(ctx context.Context, ch chan int) {
	select {
	case <-ctx.Done():
	case <-ch:
	}
}

func spawnCtx(ctx context.Context, ch chan int) {
	go func() { ctxWrapper(ctx, ch) }()
}

func spawnAllowed(ch chan int) {
	//janus:allow(ctxleak): fixture demonstrates an intended fire-and-forget goroutine
	go wrapper(ch)
}
