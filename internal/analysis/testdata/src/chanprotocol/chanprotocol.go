// Package chanprotocol exercises the spawn-edge channel protocol check:
// goroutine sends/receives need a reachable counterpart or select escape,
// ranges need a reachable close, and no path may double-close or send on a
// possibly-closed channel.
package chanprotocol

func work(int) {}

// sendNoReceiver leaks: nothing ever drains ch, so the goroutine blocks on
// the send forever.
func sendNoReceiver() {
	ch := make(chan int)
	go func() { // want "sends on \"ch\" but the spawner side never receives"
		ch <- 1
	}()
}

// sendDrained is the fixed shape: the spawner receives the result.
func sendDrained() int {
	ch := make(chan int)
	go func() {
		ch <- 1
	}()
	return <-ch
}

// sendWithEscape parks the result send in a select whose other arm the
// spawner can always unblock by closing done.
func sendWithEscape() {
	out := make(chan int)
	done := make(chan struct{})
	go func() {
		select {
		case out <- 1:
		case <-done:
			return
		}
	}()
	close(done)
}

// sendNonBlocking drops the value when nobody listens; a select with
// default never parks the goroutine.
func sendNonBlocking() {
	out := make(chan int, 1)
	go func() {
		select {
		case out <- 1:
		default:
		}
	}()
}

// recvForever blocks on a channel nothing ever feeds.
func recvForever() {
	ready := make(chan struct{})
	go func() { // want "receives on \"ready\" but the spawner side never sends or closes"
		<-ready
		work(0)
	}()
}

// recvSignalled is the fixed shape: the spawner closes the gate.
func recvSignalled() {
	ready := make(chan struct{})
	go func() {
		<-ready
		work(0)
	}()
	close(ready)
}

// rangeNoClose never terminates: the range drains jobs and then parks
// forever because no close ends the stream.
func rangeNoClose() {
	jobs := make(chan int, 4)
	go func() { // want "ranges over \"jobs\" but the spawner side never closes"
		for j := range jobs {
			work(j)
		}
	}()
	jobs <- 1
}

// rangeClosed is the fixed worker shape: feed, then close to end the range.
func rangeClosed() {
	jobs := make(chan int, 4)
	go func() {
		for j := range jobs {
			work(j)
		}
	}()
	jobs <- 1
	close(jobs)
}

// fireAndForget documents an intentionally unmatched send: telemetry that
// may outlive its consumer.
func fireAndForget(events chan int) {
	//ordlint:allow chanprotocol — best-effort telemetry; the consumer may already be gone and the event is droppable
	go func() {
		events <- 1
	}()
}

// doubleClose panics at the second close.
func doubleClose(c chan int) {
	close(c)
	close(c) // want "may already be closed on a path reaching this close"
}

// closeOncePerPath is fine: the closes sit on exclusive branches.
func closeOncePerPath(c chan int, early bool) {
	if early {
		close(c)
		return
	}
	close(c)
}

// sendAfterClose panics whenever flush is taken before the send.
func sendAfterClose(c chan int, flush bool) {
	if flush {
		close(c)
	}
	c <- 1 // want "may be closed on a path reaching this send"
}

// deferredDouble closes inline and then again at exit.
func deferredDouble(c chan int) {
	defer close(c) // want "inline and a deferred close"
	c <- 1
	close(c)
}

// deferredClose is the usual producer idiom: sends, then a deferred close
// at exit.
func deferredClose(c chan int) {
	defer close(c)
	c <- 1
}
