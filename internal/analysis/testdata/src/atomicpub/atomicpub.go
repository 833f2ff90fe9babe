// Package atomicpub exercises the publication-freeze check: a value
// published through atomic.Pointer/Value Store must not be written
// afterwards (directly or through the local it was copied from), and a
// value obtained from Load is read-only.
package atomicpub

import "sync/atomic"

type snap struct {
	k    int
	recs []int
}

// publishThenMutate writes a field of the published value: a concurrent
// reader holding the pointer observes the mutation mid-read.
func publishThenMutate(ptr *atomic.Pointer[snap]) {
	s := snap{k: 1}
	ptr.Store(&s)
	s.k = 2 // want "s was published through ptr.Store and is written here on a following path"
}

// publishCopy publishes a copy of auth inside the loop and keeps appending
// to auth: the copy shares recs' backing array, so the append can land in
// memory a reader of the published snapshot is scanning.
func publishCopy(ptr *atomic.Pointer[snap], n int) {
	var auth snap
	for i := 0; i < n; i++ {
		auth.recs = append(auth.recs, i) // want "auth was copied into the snapshot published through ptr.Store"
		if i%2 == 0 {
			published := auth
			ptr.Store(&published)
		}
	}
}

// publishFrozen is the contract observed: build fully, publish, stop.
func publishFrozen(ptr *atomic.Pointer[snap]) {
	s := snap{k: 1, recs: []int{1, 2}}
	ptr.Store(&s)
}

// loadMutate writes through a Load result; the snapshot is shared with
// every other reader and with the publisher.
func loadMutate(ptr *atomic.Pointer[snap]) int {
	s := ptr.Load()
	s.k = 3 // want "s holds a snapshot obtained from ptr.Load and is mutated here"
	return s.k
}

// readSnap treats the loaded snapshot as read-only: the blessed shape.
func readSnap(ptr *atomic.Pointer[snap]) int {
	s := ptr.Load()
	return s.k
}

// publishAppend is an append-only publication contract: the published slice
// header pins its visible length, so appending past that prefix never
// mutates what a snapshot reader can see.
func publishAppend(ptr *atomic.Pointer[snap], xs []int) {
	var auth snap
	for _, x := range xs {
		//ordlint:allow atomicpub — append-only past the published prefix; the snapshot's slice header freezes its visible length
		auth.recs = append(auth.recs, x)
		published := auth
		ptr.Store(&published)
	}
}
