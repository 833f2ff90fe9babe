// Package deepnoalloc exercises noalloc's call-chain cases: an annotated
// kernel may not call its way to an allocation, whether the allocation is
// a module callee's make or an escape into a stdlib package off the
// allocation-free allowlist. The fixture config allowlists math and marks
// cacheFill as an amortized one-time fill.
package deepnoalloc

import (
	"fmt"
	"math"
)

var (
	sink  []int
	cache []float64
)

func helperAllocs() {
	sink = make([]int, 8)
}

func helperFmt() string {
	return fmt.Sprintf("%d", len(sink))
}

func clean(x float64) float64 { return math.Sqrt(x) + 1 }

func cacheFill() {
	if cache == nil {
		cache = make([]float64, 64)
	}
}

func helperAllowed() {
	sink = make([]int, 1) //ordlint:allow noalloc — documented free-list miss; growth is amortized
}

// Kernel reaches a module callee that allocates.
//
//ordlint:noalloc
func Kernel(x float64) float64 {
	helperAllocs() // want "call chain deepnoalloc.Kernel → deepnoalloc.helperAllocs reaches an allocation"
	return x
}

// KernelExtern leaves the module into fmt, which is not allowlisted.
//
//ordlint:noalloc
func KernelExtern() int {
	s := helperFmt() // want "call chain deepnoalloc.KernelExtern → deepnoalloc.helperFmt leaves the module into fmt.Sprintf"
	return len(s)
}

// KernelMath only reaches math, which the config allowlists: quiet.
//
//ordlint:noalloc
func KernelMath(x float64) float64 {
	return clean(x)
}

// KernelCached calls the documented amortized cache fill: quiet.
//
//ordlint:noalloc
func KernelCached() float64 {
	cacheFill()
	return cache[0]
}

// KernelAllowed reaches an allocation that carries an in-place allow
// comment — the contract escape propagates through the summary.
//
//ordlint:noalloc
func KernelAllowed() {
	helperAllowed()
}
