package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"inductance101/internal/circuit"
	"inductance101/internal/grid"
	"inductance101/internal/matrix"
)

// TestTable1TransientOrderingPinned pins the minimum-degree ordering of
// the PEEC(RC) and PEEC(RLC) transient matrices G + gmin + (2/h)C of the
// scaled `clocksim -nx 6 -ny 6 -levels 3` case (seed 1). The hashes were
// recorded from the map-based ordering; a faster ordering must reproduce
// them, or every sparse transient of the Table 1 flows would round
// differently.
func TestTable1TransientOrderingPinned(t *testing.T) {
	opt := DefaultCaseOptions()
	opt.Grid.NX, opt.Grid.NY = 6, 6
	opt.ClockLevels = 3
	opt.Seed = 1
	c, err := NewClockCase(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mode grid.PEECMode
		want uint64
	}{
		{"RC", grid.ModeRC, 0xc35603c126778126},
		{"RLC", grid.ModeRLC, 0x4d89aab8b6cbb469},
	} {
		p, err := grid.BuildPEECNetlist(c.Grid.Layout, c.Par, grid.PEECOptions{Mode: tc.mode})
		if err != nil {
			t.Fatal(err)
		}
		n := p.Netlist
		if err := c.attachEnvironment(n, true, true, true); err != nil {
			t.Fatal(err)
		}
		sm := circuit.BuildSparse(n)
		a := matrix.NewTriplet(sm.Size(), sm.Size()).AddScaled(1, sm.G)
		for i := 0; i < n.NumNodes(); i++ {
			a.Add(i, i, 1e-12)
		}
		a.AddScaled(2/DefaultFlowOptions(StrategyFull).TStep, sm.C)
		colPtr, rowIdx := a.ToCSC().Pattern()
		q := matrix.MinDegreeOrdering(sm.Size(), colPtr, rowIdx)
		h := fnv.New64a()
		var buf [8]byte
		for _, v := range q {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s (%d unknowns): ordering hash %#x, want %#x", tc.name, sm.Size(), got, tc.want)
		}
	}
}
