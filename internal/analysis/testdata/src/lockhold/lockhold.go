// Package lockhold exercises lockmode's held-across-blocking-operation
// cases: a mutex class acquired on some path may not be held at a channel
// op, a select without default, or a call that may block per the
// interprocedural summary. Deferred unlocks do not release (they run at
// exit), and re-acquiring a held class is a self-deadlock.
package lockhold

import (
	"sync"
	"time"
)

type registry struct {
	mu    sync.Mutex
	items map[string]int
	ch    chan int
}

// BadSleep holds mu across a sleep.
func (r *registry) BadSleep() {
	r.mu.Lock()
	time.Sleep(time.Millisecond) // want "call to time.Sleep while holding r.mu"
	r.mu.Unlock()
}

// BadDeferred: the deferred unlock keeps mu held through the body, so the
// receive below happens under the lock.
func (r *registry) BadDeferred() {
	r.mu.Lock()
	defer r.mu.Unlock()
	<-r.ch // want "channel receive while holding r.mu"
}

// BadSend holds mu across a channel send.
func (r *registry) BadSend(v int) {
	r.mu.Lock()
	r.ch <- v // want "channel send while holding r.mu"
	r.mu.Unlock()
}

// BadTransitive: slow does not block syntactically here — its summary does.
func (r *registry) BadTransitive() {
	r.mu.Lock()
	r.slow() // want "call to lockhold.registry.slow .+ while holding r.mu"
	r.mu.Unlock()
}

func (r *registry) slow() { time.Sleep(time.Millisecond) }

// SelfDeadlock re-acquires a class already held.
func (r *registry) SelfDeadlock() {
	r.mu.Lock()
	r.mu.Lock() // want "r.mu is locked while already held on some path: self-deadlock"
	r.mu.Unlock()
}

// GoodSnapshot is the sanctioned pattern: snapshot under lock, release,
// then do the slow work. Quiet.
func (r *registry) GoodSnapshot() int {
	r.mu.Lock()
	v := r.items["k"]
	r.mu.Unlock()
	time.Sleep(time.Millisecond)
	return v
}

// GoodNonBlocking holds mu across pure computation only. Quiet.
func (r *registry) GoodNonBlocking() int {
	r.mu.Lock()
	n := len(r.items)
	r.mu.Unlock()
	return n
}

// Allowed documents a deliberate exception in place.
func (r *registry) Allowed() {
	r.mu.Lock()
	time.Sleep(time.Millisecond) //ordlint:allow lockmode — startup-only path with no concurrent callers
	r.mu.Unlock()
}
