package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by 20-100%
// over minutes (a fixed sort-and-hash computation measured 30-44 ms within
// three minutes, and 47-84 ms an hour later). Timings are therefore
// reported at a nominal machine speed: each run times a fixed reference
// computation between short measurement rounds, and scales every duration
// by refNominal / (mean reference time). The dense sampling matters: the
// reference has to see the same seconds, and the same CPUs, the workload
// does.

// refNominal is the reference computation's duration on the host the
// bounds were set on (2 vCPU Intel Xeon at 2.1 GHz, quiet period).
const refNominal = 8 * time.Millisecond

// refSink keeps the reference's results live.
var refSink int

// reference runs a fixed computation of the kinds a request does: fill and
// sort float slices, insert into a hash map, and round-trip JSON. It is the
// benchmark's own code, so it is identical on every commit measured. sink
// keeps its results live.
func reference() (d time.Duration, sink int) {
	rng := rand.New(rand.NewSource(1))
	t0 := time.Now()
	xs := make([]float64, 50_000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	sort.Float64s(xs)
	m := make(map[int]float64)
	for i := 0; i < 20_000; i++ {
		m[rng.Intn(1<<20)] = xs[i]
	}
	b, err := json.Marshal(xs[:5000])
	if err != nil {
		panic(err) // finite floats always marshal
	}
	var back []float64
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err) // the bytes were just marshalled
	}
	return time.Since(t0), len(m) + len(back)
}

// calibration collects one run's reference timings.
type calibration struct {
	samples []time.Duration
}

// measure runs par copies of the reference at once and records their mean
// time. The timed phase passes its number of callers, so the reference
// loads as many CPUs as the workload does: a host slowed on one of two
// CPUs slows two callers, and one reference would not see it. With one
// copy, mixed-write's ten-seed spread of query_p50_ms (a cache hit, about
// 7 µs) was 11% in one set; with two, 3.5% in the next.
func (c *calibration) measure(par int) time.Duration {
	ds := make([]time.Duration, par)
	sinks := make([]int, par)
	var wg sync.WaitGroup
	for i := range ds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds[i], sinks[i] = reference()
		}(i)
	}
	wg.Wait()
	var sum time.Duration
	for i, d := range ds {
		sum += d
		refSink += sinks[i]
	}
	d := sum / time.Duration(par)
	c.samples = append(c.samples, d)
	return d
}

// refTime is the mean reference time of the run: the workload's times are
// sums over the same seconds, so the mean tracks them, not the median.
func (c *calibration) refTime() time.Duration {
	var sum time.Duration
	for _, d := range c.samples {
		sum += d
	}
	return sum / time.Duration(len(c.samples))
}

// factor converts a duration measured in this run to nominal speed:
// multiply durations by it, divide rates by it.
func (c *calibration) factor() float64 {
	return float64(refNominal) / float64(c.refTime())
}
