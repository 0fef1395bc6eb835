package fasthenry

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"inductance101/internal/matrix"
)

// TestSchurOrderingPinned pins the minimum-degree ordering of the Schur
// complement pattern Ŝ = A D⁻¹ Aᵀ on the PlaneNW=16 microstrip, the
// symbolic analysis every iterative plane solve starts from. The hash
// was recorded from the map-based ordering; a faster ordering must
// reproduce it.
func TestSchurOrderingPinned(t *testing.T) {
	l, segs, port, shorts := microstripOverPlane(t)
	s, err := NewSolver(l, segs, port, shorts, 1e10, Options{
		MaxPerSide: 2, PlaneNW: 16, Mode: ModeIterative,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.schur()
	if err != nil {
		t.Fatal(err)
	}
	colPtr, rowIdx := p.tmpl.Pattern()
	q := matrix.MinDegreeOrdering(p.n, colPtr, rowIdx)
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range q {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	if got, want := h.Sum64(), uint64(0x35035eff131a9afe); got != want {
		t.Errorf("Schur pattern (%d nodes, %d nonzeros): ordering hash %#x, want %#x", p.n, p.tmpl.NNZ(), got, want)
	}
}
