// Package goroutinecap exercises the goroutine-capture analyzer: spawned
// goroutines must not share non-synchronized workspaces or pooled nodes.
package goroutinecap

import "sync"

// Workspace is per-worker scratch; the zero value is ready.
type Workspace struct {
	buf []int
}

type node struct {
	val int
}

type engine struct {
	ws Workspace
}

func use(*Workspace) {}
func useNode(*node)  {}

// BadCapture shares one workspace between the caller and the goroutine.
func BadCapture(ws *Workspace) {
	go func() {
		use(ws) // want "captures"
	}()
}

// BadSelector reaches a workspace through a captured struct.
func BadSelector(e *engine) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.ws.buf = nil // want "captures"
	}()
	wg.Wait()
}

// BadLoopShare hands the same workspace to every worker it spawns.
func BadLoopShare(ws *Workspace, jobs []int) {
	for range jobs {
		go use(ws) // want "every goroutine"
	}
}

// BadLoopNode does the same with a pooled node.
func BadLoopNode(n *node, jobs []int) {
	for range jobs {
		go useNode(n) // want "every goroutine"
	}
}

// GoodPerIteration gives each worker its own per-iteration value.
func GoodPerIteration(nodes []*node) {
	for _, n := range nodes {
		go func(n *node) {
			useNode(n)
		}(n)
	}
}

// GoodPerWorkerSlot indexes into a per-worker slice, the batched
// explorer's idiom.
func GoodPerWorkerSlot(wss []*Workspace, jobs []int) {
	for i := range jobs {
		i := i
		go func() {
			use(wss[i])
		}()
	}
}

// AllowedShare is deliberate: the workers only read the warmed buffers.
func AllowedShare(ws *Workspace, jobs []int) {
	for range jobs {
		go use(ws) //ordlint:allow goroutinecap — workers only read ws; no writes until Wait returns
	}
}
