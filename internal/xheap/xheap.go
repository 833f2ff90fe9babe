// Package xheap is a type-parameterised binary min-heap. It replaces
// container/heap on the library's hot paths: container/heap moves elements
// through interface{}, which boxes every Push/Pop argument onto the heap —
// one allocation per operation — and dispatches Less/Swap through an
// interface table. The generic heap below stores elements in a plain slice,
// calls Less directly, and allocates only when the slice grows, so a warmed
// heap performs zero allocations per Push/Pop.
//
// Element types declare their own ordering by implementing Less; "less"
// means "higher priority" (popped first), so a max-heap simply inverts the
// comparison inside its Less method, exactly as with container/heap.
package xheap

// Lesser is the ordering constraint: Less reports whether the receiver has
// strictly higher priority than o (is popped first).
type Lesser[T any] interface {
	Less(o T) bool
}

// Heap is a binary min-heap over T. The zero value is an empty heap ready
// for use. Heaps are not goroutine-safe.
type Heap[T Lesser[T]] struct {
	s []T
}

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.s) }

// Push adds v to the heap.
//
//ordlint:noalloc
func (h *Heap[T]) Push(v T) {
	h.s = append(h.s, v)
	h.up(len(h.s) - 1)
}

// Pop removes and returns the minimum element. It panics on an empty heap,
// like container/heap.
//
//ordlint:noalloc
func (h *Heap[T]) Pop() T {
	n := len(h.s) - 1
	h.s[0], h.s[n] = h.s[n], h.s[0]
	v := h.s[n]
	var zero T
	h.s[n] = zero // release references held by pointer-ish element types
	h.s = h.s[:n]
	if n > 0 {
		h.down(0)
	}
	return v
}

// Peek returns a pointer to the minimum element without removing it. The
// pointer is valid only until the next heap operation. It panics on an
// empty heap.
//
//ordlint:noalloc
func (h *Heap[T]) Peek() *T { return &h.s[0] }

// Fix re-establishes the heap ordering after the element at index i changed
// its key, like container/heap.Fix.
//
//ordlint:noalloc
func (h *Heap[T]) Fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// Reset empties the heap while keeping its backing storage for reuse.
//
//ordlint:noalloc
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.s {
		h.s[i] = zero
	}
	h.s = h.s[:0]
}

// Items exposes the underlying slice in heap order (the minimum is at index
// 0; the rest follow heap, not sorted, order). The slice is owned by the
// heap: it is valid only until the next heap operation and must not be
// reordered by the caller.
//
//ordlint:noalloc
func (h *Heap[T]) Items() []T { return h.s }

//
//ordlint:noalloc
func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.s[i].Less(h.s[parent]) {
			return
		}
		h.s[i], h.s[parent] = h.s[parent], h.s[i]
		i = parent
	}
}

// down sifts the element at i towards the leaves; it reports whether the
// element moved (the contract Fix relies on).
//
//ordlint:noalloc
func (h *Heap[T]) down(i int) bool {
	start := i
	n := len(h.s)
	for left := 2*i + 1; left < n; left = 2*i + 1 {
		least := left
		if right := left + 1; right < n && h.s[right].Less(h.s[left]) {
			least = right
		}
		if !h.s[least].Less(h.s[i]) {
			break
		}
		h.s[i], h.s[least] = h.s[least], h.s[i]
		i = least
	}
	return i > start
}
