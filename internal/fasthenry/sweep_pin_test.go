package fasthenry

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"inductance101/internal/sweep"
)

// TestAdaptiveIterativeSweepPin pins the adaptive sweep's iterative
// anchor solves on the 128-wire, 1,024-filament bus of the bus_1k
// benchmark (NW=4, NT=2, 2 µm pitch) at 201 log points from 100 MHz to
// 20 GHz: the anchor indices in solve order, the total GMRES iterations
// of the anchor solves and a hash of every point's Z bits. Each worker
// warm-starts GMRES along its own chunk of anchors, so the bits depend
// on the worker count and each count has its own pin. Go fuses
// multiply-adds on arm64 and other targets but not on amd64, so the
// values hold on amd64 only.
func TestAdaptiveIterativeSweepPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned on amd64, where Go never fuses multiply-adds")
	}
	type pin struct {
		anchors []int
		iters   int
		hash    uint64
	}
	want := map[int]pin{
		1: {[]int{0, 25, 50, 75, 100, 125, 150, 175, 200, 182, 187, 186, 24, 102, 130, 152, 48, 74, 162, 156, 10, 9, 167, 195}, 531, 0xde1c125b8f1f11c8},
		2: {[]int{0, 25, 50, 75, 100, 125, 150, 175, 200, 182, 187, 188, 24, 102, 130, 152, 48, 76, 162, 156, 10, 9, 166, 195}, 535, 0xed0bcc1ee06dd79b},
	}
	l, segs, port, shorts := busLayout(128, 1e-3, 1e-6, 2e-6)
	freqs := LogSpace(1e8, 2e10, 201)
	for _, w := range []int{1, 2} {
		s, err := NewSolver(l, segs, port, shorts, 20e9,
			Options{NW: 4, NT: 2, Mode: ModeIterative, Workers: w, SweepMode: sweep.ModeAdaptive})
		if err != nil {
			t.Fatal(err)
		}
		pts, anchors, err := s.sweepAdaptive(context.Background(), freqs, w)
		if err != nil {
			t.Fatal(err)
		}
		got := pin{anchors: anchors}
		zs := make([]complex128, len(pts))
		for i, p := range pts {
			got.iters += p.Iters
			zs[i] = p.Z
		}
		got.hash = hashComplex(zs)
		if wp := want[w]; !slices.Equal(got.anchors, wp.anchors) || got.iters != wp.iters || got.hash != wp.hash {
			t.Errorf("workers=%d: anchors %v, %d iterations, hash %#x; want anchors %v, %d iterations, hash %#x",
				w, got.anchors, got.iters, got.hash, wp.anchors, wp.iters, wp.hash)
		}
	}
}

// TestExactIterativeSweepPin pins the exact flat-ACA sweep on the same
// 1,024-filament bus at 9 log points from 100 MHz to 20 GHz: a hash of
// every point's Z bits and each point's GMRES iteration count. The
// sweep splits the ascending points into min(workers, points)
// contiguous chunks, and each chunk warm-starts GMRES from its previous
// point, so each worker count has its own pin. The values hold on
// amd64 only (see TestAdaptiveIterativeSweepPin).
func TestExactIterativeSweepPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned on amd64, where Go never fuses multiply-adds")
	}
	type pin struct {
		iters []int
		hash  uint64
	}
	want := map[int]pin{
		1: {[]int{9, 9, 12, 15, 20, 25, 29, 32, 34}, 0x4f4afdf98f7e5884},
		2: {[]int{9, 9, 12, 15, 20, 26, 29, 32, 34}, 0x84d52de01142f79a},
		3: {[]int{9, 9, 12, 17, 20, 25, 31, 32, 34}, 0x714f79df150610f5},
	}
	l, segs, port, shorts := busLayout(128, 1e-3, 1e-6, 2e-6)
	freqs := LogSpace(1e8, 2e10, 9)
	for _, w := range []int{1, 2, 3} {
		s, err := NewSolver(l, segs, port, shorts, 20e9,
			Options{NW: 4, NT: 2, Mode: ModeIterative, Workers: w, SweepMode: sweep.ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		pts, err := s.Sweep(freqs)
		if err != nil {
			t.Fatal(err)
		}
		var got pin
		zs := make([]complex128, len(pts))
		for i, p := range pts {
			got.iters = append(got.iters, p.Iters)
			zs[i] = p.Z
		}
		got.hash = hashComplex(zs)
		if wp := want[w]; !slices.Equal(got.iters, wp.iters) || got.hash != wp.hash {
			t.Errorf("workers=%d: iterations %v, hash %#x; want iterations %v, hash %#x",
				w, got.iters, got.hash, wp.iters, wp.hash)
		}
	}
}
