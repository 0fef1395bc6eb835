package extract

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"inductance101/internal/geom"
)

// checkRange reports whether idx is exactly order[start : start+len(idx)].
func checkRange(t *testing.T, order, idx []int, start int, what string) {
	t.Helper()
	if start < 0 || start+len(idx) > len(order) || !slices.Equal(order[start:start+len(idx)], idx) {
		t.Fatalf("%s: %d elements at tree position %d are not that contiguous range", what, len(idx), start)
	}
}

// checkOrder verifies the tree order is a permutation of [0, n).
func checkOrder(t *testing.T, order []int, n int) {
	t.Helper()
	sorted := slices.Clone(order)
	slices.Sort(sorted)
	for i, e := range sorted {
		if e != i || len(sorted) != n {
			t.Fatalf("tree order is not a permutation of [0, %d)", n)
		}
	}
}

// TestBlocksContiguousInTreeOrder checks the layout the planar matvec
// relies on: in both compressed operators every diagonal, near, far
// and nested-basis leaf block covers one contiguous range of the tree
// order, which is a permutation of the elements. The grid has both
// routing directions, so the order interleaves two cluster trees and
// differs from the segment order.
func TestBlocksContiguousInTreeOrder(t *testing.T) {
	l, segs := gridLayout(160, 160, 500e-6, 1e-6, 2e-6)
	n := len(segs)

	flat := CompressInductance(l, segs, GMDOptions{}, ACAOptions{Tol: 1e-8})
	checkOrder(t, flat.order, n)
	if len(flat.far) == 0 || len(flat.near) == 0 {
		t.Fatalf("flat operator has %d near and %d far blocks; the test needs both", len(flat.near), len(flat.far))
	}
	for _, b := range flat.diag {
		checkRange(t, flat.order, b.rows, b.r0, "flat diagonal block")
	}
	for _, b := range flat.near {
		checkRange(t, flat.order, b.rows, b.r0, "flat near rows")
		checkRange(t, flat.order, b.cols, b.c0, "flat near cols")
	}
	for _, b := range flat.far {
		checkRange(t, flat.order, b.rows, b.r0, "flat far rows")
		checkRange(t, flat.order, b.cols, b.c0, "flat far cols")
	}

	h2 := CompressInductanceH2(l, segs, GMDOptions{}, H2Options{Tol: 1e-8})
	checkOrder(t, h2.order, n)
	if len(h2.coups) == 0 {
		t.Fatal("nested operator has no couplings")
	}
	for _, b := range h2.diag {
		checkRange(t, h2.order, b.rows, b.r0, "nested diagonal block")
	}
	for _, b := range h2.near {
		checkRange(t, h2.order, b.rows, b.r0, "nested near rows")
		checkRange(t, h2.order, b.cols, b.c0, "nested near cols")
	}
	for _, nd := range h2.nodes {
		checkRange(t, h2.order, nd.t.Segs, nd.e0, "nested basis node")
	}
}

// TestNonNestedTreePanics checks the build-time invariant: a tree
// whose parent does not list its children's elements in order cannot
// be laid out contiguously, and both builders refuse it.
func TestNonNestedTreePanics(t *testing.T) {
	elems := make([]HElement, 4)
	for i := range elems {
		elems[i] = HElement{A0: 0, A1: 1e-4, Cross: float64(i) * 2e-6, Z: 1e-6, Rad: 5e-7}
	}
	entry := func(i, j int) float64 { return 1 / (1 + math.Abs(float64(i-j))) }
	tree := func() []*geom.ClusterNode {
		return []*geom.ClusterNode{{
			Segs:  []int{0, 1, 2, 3},
			Left:  &geom.ClusterNode{Segs: []int{0, 2}, Level: 1},
			Right: &geom.ClusterNode{Segs: []int{1, 3}, Level: 1},
		}}
	}
	for name, build := range map[string]func(){
		"flat":   func() { CompressL(elems, tree(), entry, ACAOptions{Workers: 1}) },
		"nested": func() { CompressLH2(elems, tree(), entry, H2Options{Workers: 1}) },
	} {
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "contiguous range of the tree order") {
					t.Errorf("%s: a non-nested tree built with panic %v, want the tree-order invariant", name, r)
				}
			}()
			build()
		}()
	}
}
