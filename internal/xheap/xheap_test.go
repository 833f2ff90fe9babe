package xheap

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

type intItem int

func (a intItem) Less(b intItem) bool { return a < b }

func TestHeapSortsRandomInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		var h Heap[intItem]
		want := make([]int, 0, n)
		for i := 0; i < n; i++ {
			v := rng.Intn(40) // duplicates likely
			h.Push(intItem(v))
			want = append(want, v)
		}
		sort.Ints(want)
		if h.Len() != n {
			t.Fatalf("Len = %d, want %d", h.Len(), n)
		}
		for i := 0; i < n; i++ {
			if p := int(*h.Peek()); p != want[i] {
				t.Fatalf("trial %d: Peek = %d, want %d", trial, p, want[i])
			}
			if v := int(h.Pop()); v != want[i] {
				t.Fatalf("trial %d: pop %d = %d, want %d", trial, i, v, want[i])
			}
		}
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var h Heap[intItem]
	// Reference: container/heap over the same operation sequence.
	ref := &refHeap{}
	for op := 0; op < 2000; op++ {
		if ref.Len() == 0 || rng.Intn(3) > 0 {
			v := rng.Intn(1000)
			h.Push(intItem(v))
			heap.Push(ref, v)
		} else {
			got, want := int(h.Pop()), heap.Pop(ref).(int)
			if got != want {
				t.Fatalf("op %d: Pop = %d, want %d", op, got, want)
			}
		}
		if h.Len() != ref.Len() {
			t.Fatalf("op %d: Len = %d, want %d", op, h.Len(), ref.Len())
		}
	}
}

type fixItem struct {
	key int
	id  int
}

func (a fixItem) Less(b fixItem) bool { return a.key < b.key }

func TestHeapFix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Heap[fixItem]
	for i := 0; i < 100; i++ {
		h.Push(fixItem{key: rng.Intn(1000), id: i})
	}
	for trial := 0; trial < 200; trial++ {
		i := rng.Intn(h.Len())
		h.Items()[i].key = rng.Intn(1000)
		h.Fix(i)
	}
	prev := -1
	for h.Len() > 0 {
		v := h.Pop()
		if v.key < prev {
			t.Fatalf("pop order violated: %d after %d", v.key, prev)
		}
		prev = v.key
	}
}

func TestHeapResetKeepsCapacity(t *testing.T) {
	var h Heap[intItem]
	for i := 0; i < 100; i++ {
		h.Push(intItem(i))
	}
	c := cap(h.s)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d", h.Len())
	}
	if cap(h.s) != c {
		t.Fatalf("Reset dropped capacity: %d -> %d", c, cap(h.s))
	}
}

func TestHeapPopReleasesPointers(t *testing.T) {
	var h Heap[ptrItem]
	h.Push(ptrItem{p: new(int)})
	h.Pop()
	// After Pop the slot beyond len must be zeroed so the pointee is
	// collectable.
	if h.s[:1][0].p != nil {
		t.Fatal("Pop left a live pointer in the backing slice")
	}
}

type ptrItem struct{ p *int }

func (a ptrItem) Less(b ptrItem) bool { return false }

func TestHeapZeroAllocSteadyState(t *testing.T) {
	var h Heap[intItem]
	round := func() {
		for i := 0; i < 64; i++ {
			h.Push(intItem(64 - i))
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
	round() // grows the backing slice to its steady-state size
	allocs := testing.AllocsPerRun(100, round)
	if allocs != 0 {
		t.Fatalf("steady-state Push/Pop allocated %.1f times per cycle", allocs)
	}
}

// refHeap is a plain container/heap min-heap of ints.
type refHeap []int

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
