// Package lockmode exercises the RWMutex mode discipline over guarded
// types: writers (//ordlint:writer plus the field-write derivation) need
// the write lock on every path, readers at least the read lock, fresh
// unpublished objects are exempt until they escape, RLock→Lock upgrades
// self-deadlock, and unlock modes must pair with their acquisition. Its
// control-flow cases pin that a range body is seen once, an empty select
// is seen at all, and the comm operation of a select with a default
// clause, which never blocks, is not a blocking operation.
package lockmode

import (
	"context"
	"sync"
)

type dataset struct {
	n     int
	dim   int
	items map[int]int
}

func newDataset(dim int) *dataset {
	return &dataset{dim: dim, items: map[int]int{}}
}

// Insert is hand-annotated as a writer.
//
//ordlint:writer — mutates the item table
func (d *dataset) Insert(id int) { d.items[id] = id }

// Update is a derived writer: it writes receiver fields directly.
func (d *dataset) Update(id int) {
	d.items[id] = id
	d.n++
}

// Remove is a derived transitive writer: it delegates to Update.
func (d *dataset) Remove(id int) { d.Update(-id) }

// Len is a reader.
func (d *dataset) Len() int { return len(d.items) }

// Dim reads construction-immutable state; configured pure.
func (d *dataset) Dim() int { return d.dim }

type server struct {
	mu sync.RWMutex
	ds *dataset
}

// install publishes a dataset; its lock summary is a neutral
// acquire+release pair, so callers' held sets pass through unchanged.
func (s *server) install(d *dataset) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ds = d
}

// goodWrite mutates under the write lock. Quiet.
func (s *server) goodWrite(id int) {
	s.mu.Lock()
	s.ds.Insert(id)
	s.mu.Unlock()
}

// badWriteUnderRead mutates under the read lock.
func (s *server) badWriteUnderRead(id int) {
	s.mu.RLock()
	s.ds.Insert(id) // want "writer lockmode.dataset.Insert called on s under the read lock"
	s.mu.RUnlock()
}

// badWriteUnlocked mutates with no lock at all.
func (s *server) badWriteUnlocked(id int) {
	s.ds.Update(id) // want "writer lockmode.dataset.Update called on s without the write lock"
}

// badRemove pins that the transitive-writer derivation reaches Remove.
func (s *server) badRemove(id int) {
	s.mu.RLock()
	s.ds.Remove(id) // want "writer lockmode.dataset.Remove called on s under the read lock"
	s.mu.RUnlock()
}

// goodRead reads under the deferred read lock. Quiet.
func (s *server) goodRead() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ds.Len()
}

// badReadUnlocked reads without any lock.
func (s *server) badReadUnlocked() int {
	return s.ds.Len() // want "reader lockmode.dataset.Len called on s without the dataset lock"
}

// pureUnlocked: Dim is configured pure, no lock needed. Quiet.
func (s *server) pureUnlocked() int { return s.ds.Dim() }

// freshOK mutates an unpublished dataset before installing it. Quiet.
func (s *server) freshOK() {
	d := newDataset(2)
	d.Insert(1)
	s.install(d)
}

// publishThenWrite mutates after publication: freshness is gone.
func (s *server) publishThenWrite() {
	d := newDataset(2)
	s.install(d)
	d.Insert(1) // want "writer lockmode.dataset.Insert called on d without the write lock"
}

// upgrade acquires the write lock while the read lock is held.
func (s *server) upgrade() {
	s.mu.RLock()
	s.mu.Lock() // want "RLock→Lock upgrades self-deadlock"
	s.mu.Unlock()
	s.mu.RUnlock()
}

// mismatch releases a read lock with the write-side Unlock.
func (s *server) mismatch() int {
	s.mu.RLock()
	n := s.ds.Len()
	s.mu.Unlock() // want "Unlock on s.mu pairs with RLock on some path; use RUnlock"
	return n
}

// mismatchR releases the write lock with RUnlock.
func (s *server) mismatchR(id int) {
	s.mu.Lock()
	s.ds.Insert(id)
	s.mu.RUnlock() // want "RUnlock on s.mu pairs with Lock on some path; use Unlock"
}

// relockInLoop re-acquires the read lock inside a range body. The body
// is seen once, in its own blocks, so the finding is reported once.
func (s *server) relockInLoop(ids []int) int {
	n := 0
	for range ids {
		s.mu.RLock()
		s.mu.RLock() // want "s.mu is locked while already held on some path: self-deadlock"
		n += s.ds.Len()
		s.mu.RUnlock()
		s.mu.RUnlock()
	}
	return n
}

// parkUnderLock blocks forever in an empty select with the lock held.
func (s *server) parkUnderLock() {
	s.mu.Lock()
	select {} // want "select without default while holding s.mu"
}

// pollUnderLock receives from a channel in a select with a default
// clause: the select never blocks, so holding the lock is fine. Quiet.
func (s *server) pollUnderLock(ch chan int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-ch:
		return v
	default:
		return 0
	}
}

// cancelled polls a context the same way.
func cancelled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// pollCtxUnderLock calls a context-polling helper under the lock: the
// helper's summary does not block. Quiet.
func (s *server) pollCtxUnderLock(ctx context.Context) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if cancelled(ctx) {
		return 0
	}
	return s.ds.Len()
}

// allowed documents a deliberate exception in place.
func (s *server) allowed(id int) {
	s.ds.Insert(id) //ordlint:allow lockmode — construction-only path before the server serves requests
}
