package core

import (
	"container/heap"
	"math/rand"
	"testing"

	"ordu/internal/xheap"
)

// legacyNodeHeap is the container/heap implementation the explorer used
// before the typed heap, kept as the ordering oracle: the typed xheap must
// pop regionNodes in exactly the same (mindist, top list) order.
type legacyNodeHeap []*regionNode

func (h legacyNodeHeap) Len() int            { return len(h) }
func (h legacyNodeHeap) Less(i, j int) bool  { return h[i].Less(h[j]) }
func (h legacyNodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *legacyNodeHeap) Push(x interface{}) { *h = append(*h, x.(*regionNode)) }
func (h *legacyNodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestNodeHeapOrderMatchesLegacy drives the typed heap and the legacy
// container/heap through identical interleaved push/pop sequences with
// deliberately heavy mindist ties, and requires identical pop order. The
// (mindist, top list) key is a total order over distinct nodes, so any binary
// min-heap must agree — this pins that the generic heap preserves it.
func TestNodeHeapOrderMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var typed xheap.Heap[*regionNode]
		var legacy legacyNodeHeap
		id := 0
		ops := 400
		for op := 0; op < ops; op++ {
			if typed.Len() != legacy.Len() {
				t.Fatalf("trial %d: size mismatch typed=%d legacy=%d", trial, typed.Len(), legacy.Len())
			}
			if typed.Len() > 0 && rng.Intn(3) == 0 {
				a := typed.Pop()
				b := heap.Pop(&legacy).(*regionNode)
				if a != b {
					t.Fatalf("trial %d op %d: pop mismatch: typed (mindist=%v top=%v) legacy (mindist=%v top=%v)",
						trial, op, a.mindist, a.top, b.mindist, b.top)
				}
				continue
			}
			// Few distinct mindist values and shared top-list prefixes =>
			// many ties, exercising the top-list tie-break through every
			// sift path. The last top entry keeps every list distinct.
			n := &regionNode{mindist: float64(rng.Intn(4)), top: []int{rng.Intn(3), id}}
			id++
			typed.Push(n)
			heap.Push(&legacy, n)
		}
		for typed.Len() > 0 {
			a := typed.Pop()
			b := heap.Pop(&legacy).(*regionNode)
			if a != b {
				t.Fatalf("trial %d drain: pop mismatch: typed top=%v legacy top=%v", trial, a.top, b.top)
			}
		}
		if legacy.Len() != 0 {
			t.Fatalf("trial %d: legacy heap not drained", trial)
		}
	}
}
