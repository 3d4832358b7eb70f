package lockorder

import "sync"

type box struct {
	ch chan int // set at construction
	mu sync.Mutex
}

// sendLocked performs a channel send with mu held.
func (b *box) sendLocked(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- v // want lockorder
}

// recvUnlocked releases before receiving: clean.
func (b *box) recvUnlocked() int {
	b.mu.Lock()
	b.mu.Unlock()
	return <-b.ch
}

// doubleLock re-acquires mu on the same goroutine.
func (b *box) doubleLock() {
	b.mu.Lock()
	b.mu.Lock() // want lockorder
	b.mu.Unlock()
	b.mu.Unlock()
}

// waitSignal blocks on a channel; lockedCall reaches it with mu held.
func (b *box) waitSignal() {
	<-b.ch
}

func (b *box) lockedCall() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.waitSignal() // want lockorder
}

// drainLocked ranges over the channel with mu held: the loop parks
// between messages with the lock held.
func (b *box) drainLocked() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for v := range b.ch { // want lockorder
		_ = v
	}
}

// waitBoth selects without a default with mu held: every case can block.
func (b *box) waitBoth(other chan int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // want lockorder
	case <-b.ch:
	case <-other:
	}
}

// pollLocked has a default case: non-blocking, clean.
func (b *box) pollLocked() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case v := <-b.ch:
		_ = v
	default:
	}
}

// tryPoll: TryLock joins the held set but a failed attempt takes no lock,
// so the guarded region is ordinary.
func (b *box) tryPoll() {
	if b.mu.TryLock() {
		b.mu.Unlock()
	}
}

// allowWait documents an intended block-while-held.
func (b *box) allowWait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	//janus:allow(lockorder): fixture demonstrates an intended wait under the lock
	<-b.ch
}
