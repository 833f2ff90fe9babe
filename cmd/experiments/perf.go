package main

import (
	"context"
	"errors"
	"fmt"

	"ordu/internal/core"
	"ordu/internal/data"
	"ordu/internal/expr"
	"ordu/internal/fixedregion"
	"ordu/internal/geom"
	"ordu/internal/rtree"
)

// method is one competitor line of a performance figure.
type method struct {
	name string
	run  func(tree *rtree.Tree, w geom.Vector, k, m int) error
}

func ordMethods(e *env) []method {
	return []method{
		{"ORD", func(t *rtree.Tree, w geom.Vector, k, m int) error {
			_, err := core.ORDCtx(context.Background(), t, w, k, m)
			return err
		}},
		{"ORD-BSL", func(t *rtree.Tree, w geom.Vector, k, m int) error {
			_, err := core.ORDBSL(t, w, k, m)
			return err
		}},
		{"RSB-5%", func(t *rtree.Tree, w geom.Vector, k, m int) error {
			fixedregion.RSB(t, w, k, m, 0.05)
			return nil
		}},
		{"RSB-10%", func(t *rtree.Tree, w geom.Vector, k, m int) error {
			fixedregion.RSB(t, w, k, m, 0.10)
			return nil
		}},
	}
}

func oruMethods(e *env) []method {
	return []method{
		{"ORU", func(t *rtree.Tree, w geom.Vector, k, m int) error {
			_, err := core.ORUWithCtx(context.Background(), t, w, k, m, core.ORUOptions{})
			return err
		}},
		{"ORU-BSL", func(t *rtree.Tree, w geom.Vector, k, m int) error {
			_, err := core.ORUBSL(t, w, k, m, e.bslBudget)
			return err
		}},
		{"JAA-5%", func(t *rtree.Tree, w geom.Vector, k, m int) error {
			fixedregion.JAA(t, w, k, m, 0.05)
			return nil
		}},
		{"JAA-10%", func(t *rtree.Tree, w geom.Vector, k, m int) error {
			fixedregion.JAA(t, w, k, m, 0.10)
			return nil
		}},
	}
}

// sweepCell measures one method at one parameter setting.
func (e *env) sweepCell(tree *rtree.Tree, k, m int, meth method) string {
	seeds := expr.Seeds(tree.Dim(), e.scale.Seeds)
	dnf := false
	insufficient := false
	avg, done := e.measureCell(seeds, func(w geom.Vector) {
		if err := meth.run(tree, w, k, m); err != nil {
			if errors.Is(err, core.ErrBudgetExceeded) {
				dnf = true
			} else if errors.Is(err, core.ErrInsufficientData) {
				insufficient = true
			}
		}
	})
	switch {
	case dnf:
		return "DNF"
	case insufficient:
		return "n/a"
	case done == 0:
		return "-"
	default:
		return expr.Dur(avg)
	}
}

// sweep renders one sub-figure: a set of methods across one varying
// parameter on a fixed dataset family.
func (e *env) sweep(title, xname string, xs []string, trees []*rtree.Tree, ks, ms []int, methods []method) {
	rows := make([]expr.Row, len(methods))
	for i, meth := range methods {
		cells := make([]string, len(xs))
		for j := range xs {
			cells[j] = e.sweepCell(trees[j], ks[j], ms[j], meth)
		}
		rows[i] = expr.Row{Label: meth.name, Cells: cells}
	}
	expr.Table(e.out, title, xname, xs, rows)
}

// repeat fills a slice with one value per x position.
func repeatInt(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// runFig8 reproduces Figure 8: ORD against its baseline and the
// fixed-region RSB adaptations, over |D|, d, k and m on IND data.
func runFig8(e *env) {
	s := e.scale
	methods := ordMethods(e)

	xs := make([]string, len(s.Cardinalities))
	trees := make([]*rtree.Tree, len(s.Cardinalities))
	for i, n := range s.Cardinalities {
		xs[i] = fmtCard(n)
		trees[i] = e.cache.Synthetic(data.IND, n, s.DefaultD)
	}
	e.sweep("Fig 8(a): ORD time vs |D| (IND)", "|D|", xs,
		trees, repeatInt(s.DefaultK, len(xs)), repeatInt(s.DefaultM, len(xs)), methods)

	xs = xs[:0]
	trees = trees[:0]
	for _, d := range s.Dims {
		xs = append(xs, fmt.Sprint(d))
		trees = append(trees, e.cache.Synthetic(data.IND, s.DefaultN, d))
	}
	e.sweep("Fig 8(b): ORD time vs d (IND)", "d", xs,
		trees, repeatInt(s.DefaultK, len(xs)), repeatInt(s.DefaultM, len(xs)), methods)

	def := e.cache.Synthetic(data.IND, s.DefaultN, s.DefaultD)
	xs = xs[:0]
	var ks []int
	var treesK []*rtree.Tree
	for _, k := range s.Ks {
		xs = append(xs, fmt.Sprint(k))
		ks = append(ks, k)
		treesK = append(treesK, def)
	}
	e.sweep("Fig 8(c): ORD time vs k (IND)", "k", xs,
		treesK, ks, repeatInt(s.DefaultM, len(xs)), methods)

	xs = xs[:0]
	var ms []int
	var treesM []*rtree.Tree
	for _, m := range s.Ms {
		xs = append(xs, fmt.Sprint(m))
		ms = append(ms, m)
		treesM = append(treesM, def)
	}
	e.sweep("Fig 8(d): ORD time vs m (IND)", "m", xs,
		treesM, repeatInt(s.DefaultK, len(xs)), ms, methods)
}

// runFig9 reproduces Figure 9: ORD across data distributions (vs m) and
// across the real datasets (vs k).
func runFig9(e *env) {
	s := e.scale
	ordOnly := ordMethods(e)[:1]

	xs := make([]string, len(s.Ms))
	var ms []int
	for i, m := range s.Ms {
		xs[i] = fmt.Sprint(m)
		ms = append(ms, m)
	}
	var rows []expr.Row
	for _, dist := range []data.Distribution{data.ANTI, data.COR, data.IND} {
		tree := e.cache.Synthetic(dist, s.DefaultN, s.DefaultD)
		cells := make([]string, len(xs))
		for j, m := range ms {
			cells[j] = e.sweepCell(tree, s.DefaultK, m, ordOnly[0])
		}
		rows = append(rows, expr.Row{Label: string(dist), Cells: cells})
	}
	expr.Table(e.out, "Fig 9(a): ORD time vs m across distributions", "m", xs, rows)

	xs = xs[:0]
	var ks []int
	for _, k := range s.Ks {
		xs = append(xs, fmt.Sprint(k))
		ks = append(ks, k)
	}
	rows = rows[:0]
	for _, name := range []string{"HOTEL", "HOUSE", "NBA"} {
		tree := e.cache.Named(name, e.realN(name))
		cells := make([]string, len(xs))
		for j, k := range ks {
			cells[j] = e.sweepCell(tree, k, s.DefaultM, ordOnly[0])
		}
		rows = append(rows, expr.Row{Label: name, Cells: cells})
	}
	expr.Table(e.out, "Fig 9(b): ORD time vs k on real datasets", "k", xs, rows)
}

// realN returns the cardinality used for a simulated real dataset: the
// canonical size, scaled down in quick mode.
func (e *env) realN(name string) int {
	if e.scale.DefaultN >= 400_000 {
		return 0 // canonical size
	}
	switch name {
	case "NBA", "TA":
		return 0 // already small
	default:
		return e.scale.DefaultN
	}
}

// runFig10 reproduces Figure 10: ORU against its baseline and the
// fixed-region JAA adaptations, over |D|, d, k and m on IND data.
func runFig10(e *env) {
	s := e.scale
	methods := oruMethods(e)

	xs := make([]string, len(s.Cardinalities))
	trees := make([]*rtree.Tree, len(s.Cardinalities))
	for i, n := range s.Cardinalities {
		xs[i] = fmtCard(n)
		trees[i] = e.cache.Synthetic(data.IND, n, s.DefaultD)
	}
	e.sweep("Fig 10(a): ORU time vs |D| (IND)", "|D|", xs,
		trees, repeatInt(s.DefaultK, len(xs)), repeatInt(s.DefaultM, len(xs)), methods)

	xs = xs[:0]
	trees = trees[:0]
	for _, d := range s.Dims {
		xs = append(xs, fmt.Sprint(d))
		trees = append(trees, e.cache.Synthetic(data.IND, s.DefaultN, d))
	}
	e.sweep("Fig 10(b): ORU time vs d (IND)", "d", xs,
		trees, repeatInt(s.DefaultK, len(xs)), repeatInt(s.DefaultM, len(xs)), methods)

	def := e.cache.Synthetic(data.IND, s.DefaultN, s.DefaultD)
	xs = xs[:0]
	var ks []int
	var treesK []*rtree.Tree
	for _, k := range s.Ks {
		xs = append(xs, fmt.Sprint(k))
		ks = append(ks, k)
		treesK = append(treesK, def)
	}
	e.sweep("Fig 10(c): ORU time vs k (IND)", "k", xs,
		treesK, ks, repeatInt(s.DefaultM, len(xs)), methods)

	xs = xs[:0]
	var ms []int
	var treesM []*rtree.Tree
	for _, m := range s.Ms {
		xs = append(xs, fmt.Sprint(m))
		ms = append(ms, m)
		treesM = append(treesM, def)
	}
	e.sweep("Fig 10(d): ORU time vs m (IND)", "m", xs,
		treesM, repeatInt(s.DefaultK, len(xs)), ms, methods)
}

// runFig11 reproduces Figure 11: ORU across distributions (vs m) and real
// datasets (vs k).
func runFig11(e *env) {
	s := e.scale
	oruOnly := oruMethods(e)[:1]

	xs := make([]string, 0, len(s.Ms))
	var ms []int
	for _, m := range s.Ms {
		xs = append(xs, fmt.Sprint(m))
		ms = append(ms, m)
	}
	var rows []expr.Row
	for _, dist := range []data.Distribution{data.ANTI, data.COR, data.IND} {
		tree := e.cache.Synthetic(dist, s.DefaultN, s.DefaultD)
		cells := make([]string, len(xs))
		for j, m := range ms {
			cells[j] = e.sweepCell(tree, s.DefaultK, m, oruOnly[0])
		}
		rows = append(rows, expr.Row{Label: string(dist), Cells: cells})
	}
	expr.Table(e.out, "Fig 11(a): ORU time vs m across distributions", "m", xs, rows)

	xs = xs[:0]
	var ks []int
	for _, k := range s.Ks {
		xs = append(xs, fmt.Sprint(k))
		ks = append(ks, k)
	}
	rows = rows[:0]
	for _, name := range []string{"HOTEL", "HOUSE", "NBA"} {
		tree := e.cache.Named(name, e.realN(name))
		cells := make([]string, len(xs))
		for j, k := range ks {
			cells[j] = e.sweepCell(tree, k, s.DefaultM, oruOnly[0])
		}
		rows = append(rows, expr.Row{Label: name, Cells: cells})
	}
	expr.Table(e.out, "Fig 11(b): ORU time vs k on real datasets", "k", xs, rows)
}

// runDiscussion reproduces the Section 6.4 headline numbers: ORD and ORU
// wall-clock on IND at the default and the largest cardinality.
func runDiscussion(e *env) {
	s := e.scale
	sizes := []int{s.DefaultN, s.Cardinalities[len(s.Cardinalities)-1]}
	fmt.Fprintf(e.out, "\n== Section 6.4: headline wall-clock (IND, d=%d, k=%d, m=%d) ==\n",
		s.DefaultD, s.DefaultK, s.DefaultM)
	fmt.Fprintf(e.out, "(paper at 400K/25.6M: ORD 0.22s/0.34s, ORU 4.9s/72s)\n")
	for _, n := range sizes {
		tree := e.cache.Synthetic(data.IND, n, s.DefaultD)
		seeds := expr.Seeds(s.DefaultD, s.Seeds)
		ordAvg, _ := e.measureCell(seeds, func(w geom.Vector) {
			if _, err := core.ORDCtx(context.Background(), tree, w, s.DefaultK, s.DefaultM); err != nil {
				fmt.Fprintf(e.out, "(ORD failed at |D|=%s: %v)\n", fmtCard(n), err)
			}
		})
		oruAvg, _ := e.measureCell(seeds, func(w geom.Vector) {
			if _, err := core.ORUWithCtx(context.Background(), tree, w, s.DefaultK, s.DefaultM, core.ORUOptions{}); err != nil {
				fmt.Fprintf(e.out, "(ORU failed at |D|=%s: %v)\n", fmtCard(n), err)
			}
		})
		fmt.Fprintf(e.out, "|D|=%-8s ORD %-10s ORU %-10s\n", fmtCard(n), expr.Dur(ordAvg), expr.Dur(oruAvg))
	}
}

func fmtCard(n int) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1000:
		return fmt.Sprintf("%dK", n/1000)
	default:
		return fmt.Sprint(n)
	}
}
