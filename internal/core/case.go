// Package core ties the substrates together into the paper's analysis
// flows: the detailed PEEC flow (§3, with the §4 acceleration options:
// sparsification and PRIMA), the loop-inductance flow (§5), and the
// experiment drivers that regenerate the paper's figures and Table 1
// (§6): a global clock net simulated over a multi-layer power grid with
// package, decap and background switching activity.
package core

import (
	"fmt"
	"math/rand"

	"inductance101/internal/circuit"
	"inductance101/internal/decap"
	"inductance101/internal/engine"
	"inductance101/internal/extract"
	"inductance101/internal/geom"
	"inductance101/internal/grid"
	"inductance101/internal/pkgmodel"
)

// CaseOptions parameterizes the clock-over-grid workload.
type CaseOptions struct {
	Grid        grid.Spec
	ClockLevels int
	ClockWidth  float64
	SegsPerArm  int

	Vdd float64
	// DriverR is the Thevenin output resistance of the clock driver;
	// the driver switches the root between the local ground and Vdd.
	DriverR float64
	// SinkLoad is the lumped receiver capacitance per sink.
	SinkLoad float64
	// LoadSpread unbalances the sink loads by the given fraction across
	// sinks (sector buffers are never identical in a real design; this
	// is also what gives the clock tree a nonzero skew to measure).
	LoadSpread float64
	// StubLength, when nonzero, extends every odd-indexed sink with an
	// extra final-route segment of this length — the unbalanced sector
	// routing that gives real clock trees their skew.
	StubLength float64
	// InputDelay/InputRise shape the driver's switching waveform.
	InputDelay, InputRise float64

	// DecapWidth is the total non-switching transistor width (um)
	// distributed as decoupling capacitance; 0 disables.
	DecapWidth float64
	// Background is the number of background switching current sources;
	// 0 disables.
	Background     int
	BackgroundPeak float64
	Package        pkgmodel.Connection
	Seed           int64

	// Engine is the run-scoped solver configuration (workers, solve
	// mode). The zero value inherits every process default.
	Engine engine.Config
}

// DefaultCaseOptions returns the scaled-down Table 1 workload.
func DefaultCaseOptions() CaseOptions {
	return CaseOptions{
		Grid: grid.Spec{
			NX: 4, NY: 4, Pitch: 400e-6, Width: 6e-6,
			LayerX: 0, LayerY: 1, ViaR: 0.4,
		},
		ClockLevels:    2,
		ClockWidth:     5e-6,
		SegsPerArm:     1,
		Vdd:            1.8,
		DriverR:        30,
		SinkLoad:       300e-15,
		LoadSpread:     0.5,
		StubLength:     600e-6,
		InputDelay:     0.15e-9,
		InputRise:      50e-12,
		DecapWidth:     3e4,
		Background:     4,
		BackgroundPeak: 4e-3,
		Package:        pkgmodel.FlipChip(),
		Seed:           2001,
	}
}

// ClockCase is a constructed workload with its extraction shared by all
// flows.
type ClockCase struct {
	Opt   CaseOptions
	Grid  *grid.Model
	Clock *grid.ClockNet
	// Sess mints the per-layer option structs every flow threads
	// through the stack.
	Sess *engine.Session
	// Par holds the full PEEC extraction of every segment (grid +
	// clock) with the dense partial inductance matrix.
	Par *extract.Parasitics
	// DriverVdd/DriverGnd are the grid nodes the clock driver draws
	// from.
	DriverVdd, DriverGnd string

	decapEst *decap.Estimator
}

// NewClockCase builds the layout and runs the full extraction.
func NewClockCase(opt CaseOptions) (*ClockCase, error) {
	sess, err := engine.NewChecked(opt.Engine)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	gm, err := grid.BuildPowerGrid(grid.StandardLayers(), opt.Grid)
	if err != nil {
		return nil, err
	}
	cs := grid.DefaultClockSpec(gm)
	if opt.ClockLevels > 0 {
		cs.Levels = opt.ClockLevels
	}
	if opt.ClockWidth > 0 {
		cs.Width = opt.ClockWidth
	}
	if opt.SegsPerArm > 0 {
		cs.SegsPerArm = opt.SegsPerArm
	}
	cn, err := grid.AddClockTree(gm.Layout, cs)
	if err != nil {
		return nil, err
	}
	if opt.StubLength > 0 {
		addSinkStubs(gm.Layout, cn, cs, opt.StubLength)
	}
	if err := gm.Layout.Validate(); err != nil {
		return nil, fmt.Errorf("core: generated layout invalid: %w", err)
	}
	par := extract.Extract(gm.Layout, sess.ExtractOptions())
	c := &ClockCase{Opt: opt, Grid: gm, Clock: cn, Sess: sess, Par: par}
	c.DriverVdd, c.DriverGnd = gm.NearestGridNodes(cs.CX, cs.CY)

	if opt.DecapWidth > 0 {
		ref, err := decap.MeasureBlock(decap.Typical2001(), 100, 10, 1e6)
		if err != nil {
			return nil, err
		}
		est, err := decap.NewEstimator(ref, 0.85)
		if err != nil {
			return nil, err
		}
		c.decapEst = est
	}
	return c, nil
}

// session returns the case's engine session, tolerating hand-built
// ClockCase literals (tests) by falling back to a default session.
func (c *ClockCase) session() *engine.Session {
	if c.Sess == nil {
		c.Sess = engine.New(engine.Config{})
	}
	return c.Sess
}

// InputWave is the driver's Thevenin source waveform (a single rising
// transition).
func (c *ClockCase) InputWave() circuit.Pulse {
	return circuit.Pulse{
		V1: 0, V2: c.Opt.Vdd,
		Delay: c.Opt.InputDelay, Rise: c.Opt.InputRise,
		Width: 1, Fall: c.Opt.InputRise,
	}
}

// InputT50 is the analytic 50% crossing time of the input transition,
// the reference point for all delay measurements.
func (c *ClockCase) InputT50() float64 {
	return c.Opt.InputDelay + c.Opt.InputRise/2
}

// attachEnvironment adds the package, decap, background activity and
// the Thevenin clock driver plus sink loads to a stamped PEEC netlist.
// withBackground lets the PRIMA flow drop the background sources — the
// paper's active-port refinement.
func (c *ClockCase) attachEnvironment(n *circuit.Netlist, withBackground, withDriver, withSupplySource bool) error {
	if withSupplySource {
		if err := c.Grid.AttachPackage(n, c.Opt.Package, c.Opt.Vdd); err != nil {
			return err
		}
	} else {
		if err := c.Grid.AttachPackagePads(n, c.Opt.Package); err != nil {
			return err
		}
	}
	if c.decapEst != nil {
		c.Grid.AddDecap(n, c.decapEst, c.Opt.DecapWidth)
	}
	if withBackground && c.Opt.Background > 0 {
		rng := rand.New(rand.NewSource(c.Opt.Seed))
		c.Grid.AddBackgroundActivity(n, rng, c.Opt.Background, c.Opt.BackgroundPeak, 1e-9)
	}
	if withDriver {
		n.AddV("vdrv", "drv_src", c.DriverGnd, c.InputWave())
		n.AddR("rdrv", "drv_src", c.Clock.Root, c.Opt.DriverR)
	}
	for k, s := range c.Clock.Sinks {
		n.AddC(fmt.Sprintf("csink%d", k), s, circuit.Ground, c.SinkLoad(k))
	}
	return nil
}

// SinkLoad returns sink k's lumped load capacitance, spread across
// sinks by Opt.LoadSpread.
func (c *ClockCase) SinkLoad(k int) float64 {
	n := len(c.Clock.Sinks)
	if n <= 1 || c.Opt.LoadSpread == 0 {
		return c.Opt.SinkLoad
	}
	frac := float64(k)/float64(n-1) - 0.5
	return c.Opt.SinkLoad * (1 + c.Opt.LoadSpread*frac)
}

// sinkPosition locates a sink node in the layout (the endpoint of the
// clock segment that carries it).
func (c *ClockCase) sinkPosition(sink string) (x, y float64, err error) {
	for _, si := range c.Clock.Segs {
		s := &c.Grid.Layout.Segments[si]
		if s.NodeA == sink {
			return s.X0, s.Y0, nil
		}
		if s.NodeB == sink {
			ex, ey := s.End()
			return ex, ey, nil
		}
	}
	return 0, 0, fmt.Errorf("core: sink %q not found on clock net", sink)
}

// TotalClockInterconnectCap sums the extracted ground capacitance of
// the clock net (for the loop model's lumped receiver capacitance).
func (c *ClockCase) TotalClockInterconnectCap() float64 {
	tot := 0.0
	lay := c.Grid.Layout
	for _, si := range c.Clock.Segs {
		tot += extract.GroundCap(lay, si)
	}
	return tot
}

// gndSegs returns the layout indices of ground-net segments.
func (c *ClockCase) gndSegs() []int {
	return c.Grid.Layout.SegmentsOnNet("GND")
}

// nearestGndNode returns the ground-grid crossing node nearest (x, y).
func (c *ClockCase) nearestGndNode(x, y float64) string {
	_, g := c.Grid.NearestGridNodes(x, y)
	return g
}

// addSinkStubs extends odd-indexed sinks with an extra final-route
// segment, unbalancing the otherwise perfectly symmetric H-tree.
func addSinkStubs(lay *geom.Layout, cn *grid.ClockNet, cs grid.ClockSpec, length float64) {
	for k := 1; k < len(cn.Sinks); k += 2 {
		sink := cn.Sinks[k]
		var x, y float64
		found := false
		for _, si := range cn.Segs {
			s := &lay.Segments[si]
			if s.NodeA == sink {
				x, y = s.X0, s.Y0
				found = true
			} else if s.NodeB == sink {
				x, y = s.End()
				found = true
			}
		}
		if !found {
			continue
		}
		stub := fmt.Sprintf("%s_stub", sink)
		cn.Segs = append(cn.Segs, lay.AddSegment(geom.Segment{
			Layer: cs.Layer, Dir: geom.DirX,
			X0: x, Y0: y, Length: length, Width: cs.Width,
			Net: "clk", NodeA: sink, NodeB: stub,
		}))
		cn.Sinks[k] = stub
	}
}
