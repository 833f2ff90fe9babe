package expr

import (
	"math"
	"strings"
	"testing"
	"time"

	"ordu/internal/data"
	"ordu/internal/geom"
)

func TestScalesSane(t *testing.T) {
	for _, s := range []Scale{PaperScale(), ReducedScale(), QuickScale()} {
		if s.DefaultK < 1 || s.DefaultM < s.DefaultK || s.Seeds < 1 {
			t.Fatalf("degenerate scale %+v", s)
		}
		if len(s.Cardinalities) == 0 || len(s.Dims) == 0 || len(s.Ks) == 0 || len(s.Ms) == 0 {
			t.Fatalf("empty sweep in %+v", s)
		}
	}
	if PaperScale().DefaultN != 400_000 || PaperScale().Seeds != 50 {
		t.Error("paper scale defaults drifted from Table 2")
	}
}

func TestCacheMemoises(t *testing.T) {
	c := NewCache()
	a := c.Synthetic(data.IND, 500, 3)
	b := c.Synthetic(data.IND, 500, 3)
	if a != b {
		t.Error("cache returned distinct trees for the same key")
	}
	if c.Synthetic(data.COR, 500, 3) == a {
		t.Error("cache conflated distributions")
	}
	if c.Named("NBA", 100).Dim() != data.NBAD {
		t.Error("named dataset wrong dimensionality")
	}
}

func TestCacheUnknownNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCache().Named("BOGUS", 10)
}

func TestSeedsDeterministicOnSimplex(t *testing.T) {
	a := Seeds(4, 5)
	b := Seeds(4, 5)
	for i := range a {
		if !geom.OnSimplex(a[i]) {
			t.Fatalf("seed %d off simplex", i)
		}
		if !a[i].Equal(b[i]) {
			t.Fatal("seeds not deterministic")
		}
	}
}

func TestBoxStats(t *testing.T) {
	b := Box([]float64{5, 1, 3, 2, 4})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.N != 5 {
		t.Fatalf("box = %+v", b)
	}
	if b.Q1 != 2 || b.Q3 != 4 {
		t.Fatalf("quartiles = %+v", b)
	}
	if Box(nil).N != 0 {
		t.Fatal("empty box not zero")
	}
	if !strings.Contains(b.String(), "med=3") {
		t.Fatalf("String() = %q", b.String())
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []int
		want float64
	}{
		{[]int{1, 2, 3}, []int{1, 2, 3}, 1},
		{[]int{1, 2}, []int{3, 4}, 0},
		{[]int{1, 2, 3}, []int{2, 3, 4}, 0.5},
		{nil, nil, 1},
		{[]int{1, 1, 2}, []int{1, 2}, 1}, // duplicates collapse
	}
	for _, c := range cases {
		if got := Jaccard(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jaccard(%v,%v) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	var sb strings.Builder
	Table(&sb, "T", "x", []string{"a", "b"}, []Row{{Label: "m1", Cells: []string{"1", "2"}}})
	out := sb.String()
	for _, want := range []string{"== T ==", "m1", "a", "b", "2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestDurFormats(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{1500 * time.Millisecond, "1.5s"},
		{25 * time.Millisecond, "25ms"},
		{1500 * time.Microsecond, "1.50ms"},
	}
	for _, c := range cases {
		if got := Dur(c.d); got != c.want {
			t.Errorf("Dur(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
