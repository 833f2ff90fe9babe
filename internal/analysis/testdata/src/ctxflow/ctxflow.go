// Package ctxflow exercises the interprocedural cancellability check. The
// fixture config names every Handler* function as an entry point; loops in
// functions those entries reach must be cancellable through the actual call
// chain. Forwarding ctx to a callee that ignores it does not count.
package ctxflow

import "context"

type scanner struct{ i int }

func (s *scanner) Next() bool { s.i++; return s.i < 1000 }

var work int

// Handler reaches spin, whose loop cannot be cancelled: no context is
// threaded down the chain at all.
func Handler(ctx context.Context) {
	spin()
}

func spin() {
	for { // want "cannot be cancelled: no context reaches the loop"
		work++
	}
}

// HandlerForwards hands ctx to a callee inside the loop, but the callee
// never polls it — the blind spot of the intraprocedural check.
func HandlerForwards(ctx context.Context) {
	for { // want "ctx is forwarded only to ctxflow.ignores, which never polls it"
		ignores(ctx)
	}
}

func ignores(ctx context.Context) { work++ }

// HandlerPolls polls the context directly: quiet.
func HandlerPolls(ctx context.Context) {
	for {
		if ctx.Err() != nil {
			return
		}
		work++
	}
}

// HandlerDelegates forwards ctx to a callee whose summary proves it polls
// transitively (polls -> deeper -> ctx.Err): quiet.
func HandlerDelegates(ctx context.Context) {
	for {
		if polls(ctx) {
			return
		}
	}
}

func polls(ctx context.Context) bool { return deeper(ctx) }

func deeper(ctx context.Context) bool { return ctx.Err() != nil }

// HandlerScanForwards advances a scan and forwards ctx to a dead end: a
// check that trusted any ctx-receiving callee would stay quiet here, but
// the chain drops the context.
func HandlerScanForwards(ctx context.Context, s *scanner) {
	for { // want "advances a scan via s.Next"
		if !s.Next() {
			return
		}
		ignores(ctx)
	}
}

// HandlerScans reaches the scan-loop shapes that cannot be cancelled, plus
// a plain range loop that advances no scan.
func HandlerScans(ctx context.Context, s *scanner, xs []int) {
	scanNoCtx(s)
	scanRange(s, xs)
	scanClosurePoll(ctx, s)
	scanUnpolled(ctx, s)
	plainRange(xs)
}

func scanNoCtx(s *scanner) {
	for { // want "advances a scan via s.Next .* no context reaches the loop"
		if !s.Next() {
			return
		}
	}
}

// scanRange is bounded by xs, but each step advances the scan.
func scanRange(s *scanner, xs []int) {
	for range xs { // want "advances a scan via s.Next"
		s.Next()
	}
}

// scanClosurePoll polls only inside a nested closure, which runs on its
// own schedule and does not make the loop cancellable.
func scanClosurePoll(ctx context.Context, s *scanner) {
	for { // want "ctx is in scope but the loop never polls it"
		if !s.Next() {
			return
		}
		_ = func() error { return ctx.Err() }
	}
}

// scanUnpolled has ctx in scope and never polls it: skyband's BBS loop
// before it learned to check ctx.Done every 64 steps.
func scanUnpolled(ctx context.Context, s *scanner) int {
	for i := 0; ; i++ { // want "ctx is in scope but the loop never polls it"
		if !s.Next() {
			return i
		}
	}
}

// plainRange advances no scan: quiet.
func plainRange(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// lonely is not reachable from any entry point; its loop is out of scope.
func lonely() {
	for {
		work++
	}
}

// HandlerAllowed reaches a loop whose finding is suppressed in place.
func HandlerAllowed(ctx context.Context) {
	spinAllowed()
}

func spinAllowed() {
	for { //ordlint:allow ctxflow — fixture escape-hatch case
		work++
	}
}
