// Package circuit defines the netlist and modified nodal analysis (MNA)
// assembly used by the SPICE-lite simulator in internal/sim.
//
// The element set is exactly what the paper's detailed PEEC circuit
// model of §3 requires: resistors, grounded and coupling capacitors,
// partial self inductors, mutual inductances, the K (inverse inductance)
// element of Devgan et al. for the K-matrix flow, independent voltage
// and current sources with time-varying waveforms (the paper's model of
// background switching activity), and level-1 MOSFETs for drivers and
// receivers.
package circuit

import (
	"fmt"
)

// Ground is the reference node; "gnd" and "GND" are accepted aliases.
const Ground = "0"

const groundIndex = -1

// Netlist is a mutable circuit description. The zero value is not
// usable; create with New.
type Netlist struct {
	nodeIndex map[string]int
	nodeNames []string

	Resistors  []Resistor
	Capacitors []Capacitor
	Inductors  []Inductor
	Mutuals    []Mutual
	KGroups    []KGroup
	VSources   []VSource
	ISources   []ISource
	MOSFETs    []MOSFET
}

// New returns an empty netlist.
func New() *Netlist {
	return &Netlist{nodeIndex: make(map[string]int)}
}

// Node interns a node name and returns its index (Ground returns -1).
func (n *Netlist) Node(name string) int {
	if name == Ground || name == "gnd" || name == "GND" {
		return groundIndex
	}
	if name == "" {
		panic("circuit: empty node name")
	}
	if i, ok := n.nodeIndex[name]; ok {
		return i
	}
	i := len(n.nodeNames)
	n.nodeIndex[name] = i
	n.nodeNames = append(n.nodeNames, name)
	return i
}

// NumNodes returns the number of non-ground nodes.
func (n *Netlist) NumNodes() int { return len(n.nodeNames) }

// NodeName returns the name of node index i.
func (n *Netlist) NodeName(i int) string { return n.nodeNames[i] }

// NodeIndex returns the index of a named node, or an error if the node
// was never mentioned by any element.
func (n *Netlist) NodeIndex(name string) (int, error) {
	if name == Ground || name == "gnd" || name == "GND" {
		return groundIndex, nil
	}
	i, ok := n.nodeIndex[name]
	if !ok {
		return 0, fmt.Errorf("circuit: unknown node %q", name)
	}
	return i, nil
}

// Resistor is a linear resistance between nodes A and B.
type Resistor struct {
	Name string
	A, B int
	R    float64
}

// Capacitor is a linear capacitance between nodes A and B.
type Capacitor struct {
	Name string
	A, B int
	C    float64
}

// Inductor is a self inductance between nodes A and B. Branch is the
// index of its current unknown, assigned at creation.
type Inductor struct {
	Name   string
	A, B   int
	L      float64
	Branch int
}

// Mutual couples two inductor branches with mutual inductance M
// (positive M for aiding flux with both currents flowing A->B).
type Mutual struct {
	Name   string
	La, Lb int // indices into Netlist.Inductors
	M      float64
}

// KGroup represents a group of inductive branches described by an
// inverse-inductance (K = L^-1) matrix, the circuit element of
// Devgan/Ji/Dai (ICCAD 2000). K is row-major n x n over the listed
// inductors, which must have been added with L = 0 placeholders.
type KGroup struct {
	Name      string
	Inductors []int // indices into Netlist.Inductors
	K         [][]float64
}

// VSource is an independent voltage source; V(t) given by Wave. Current
// flows through branch Branch from A to B inside the source.
type VSource struct {
	Name   string
	A, B   int
	Wave   Waveform
	Branch int
}

// ISource is an independent current source pushing I(t) out of node A
// and into node B (i.e. conventional current flows A -> B through the
// source when I(t) > 0... through the external circuit B -> A).
type ISource struct {
	Name string
	A, B int
	Wave Waveform
}

// AddR adds a resistor and returns its index.
func (n *Netlist) AddR(name, a, b string, r float64) int {
	if r <= 0 {
		panic(fmt.Sprintf("circuit: resistor %s with non-positive value %g", name, r))
	}
	n.Resistors = append(n.Resistors, Resistor{Name: name, A: n.Node(a), B: n.Node(b), R: r})
	return len(n.Resistors) - 1
}

// AddC adds a capacitor and returns its index.
func (n *Netlist) AddC(name, a, b string, c float64) int {
	if c < 0 {
		panic(fmt.Sprintf("circuit: capacitor %s with negative value %g", name, c))
	}
	n.Capacitors = append(n.Capacitors, Capacitor{Name: name, A: n.Node(a), B: n.Node(b), C: c})
	return len(n.Capacitors) - 1
}

// AddL adds a self inductor and returns its index (into Inductors).
func (n *Netlist) AddL(name, a, b string, l float64) int {
	if l < 0 {
		panic(fmt.Sprintf("circuit: inductor %s with negative value %g", name, l))
	}
	idx := len(n.Inductors)
	n.Inductors = append(n.Inductors, Inductor{
		Name: name, A: n.Node(a), B: n.Node(b), L: l, Branch: n.numBranches(),
	})
	return idx
}

// AddM couples inductors la and lb (indices from AddL) with mutual
// inductance m. Passivity requires m^2 <= La*Lb; this is checked here
// for pairwise stamps (matrix-level passivity is the job of
// internal/sparsify audits).
func (n *Netlist) AddM(name string, la, lb int, m float64) int {
	if la < 0 || la >= len(n.Inductors) || lb < 0 || lb >= len(n.Inductors) || la == lb {
		panic(fmt.Sprintf("circuit: mutual %s references bad inductors %d,%d", name, la, lb))
	}
	n.Mutuals = append(n.Mutuals, Mutual{Name: name, La: la, Lb: lb, M: m})
	return len(n.Mutuals) - 1
}

// AddKGroup attaches an inverse-inductance matrix to a set of inductors.
// The listed inductors' own L values are ignored (use 0).
func (n *Netlist) AddKGroup(name string, inductors []int, k [][]float64) int {
	if len(k) != len(inductors) {
		panic("circuit: K matrix size mismatch")
	}
	for _, row := range k {
		if len(row) != len(inductors) {
			panic("circuit: K matrix not square")
		}
	}
	for _, li := range inductors {
		if li < 0 || li >= len(n.Inductors) {
			panic("circuit: K group references bad inductor")
		}
	}
	n.KGroups = append(n.KGroups, KGroup{Name: name, Inductors: inductors, K: k})
	return len(n.KGroups) - 1
}

// AddV adds an independent voltage source and returns its index.
func (n *Netlist) AddV(name, a, b string, w Waveform) int {
	idx := len(n.VSources)
	n.VSources = append(n.VSources, VSource{
		Name: name, A: n.Node(a), B: n.Node(b), Wave: w, Branch: n.numBranches(),
	})
	return idx
}

// AddI adds an independent current source and returns its index.
func (n *Netlist) AddI(name, a, b string, w Waveform) int {
	n.ISources = append(n.ISources, ISource{Name: name, A: n.Node(a), B: n.Node(b), Wave: w})
	return len(n.ISources) - 1
}

// numBranches returns the number of branch-current unknowns so far
// (inductors + voltage sources), used to assign the next branch index.
func (n *Netlist) numBranches() int {
	return len(n.Inductors) + len(n.VSources)
}

// Size returns the MNA system dimension: nodes + branches.
func (n *Netlist) Size() int { return n.NumNodes() + n.numBranches() }

// BranchOfVSource returns the MNA unknown index of a source's current.
func (n *Netlist) BranchOfVSource(vi int) int {
	return n.NumNodes() + n.VSources[vi].Branch
}

// Stats reports element counts in the shape of the paper's Table 1 rows.
type Stats struct {
	NumR, NumC, NumL, NumMutual, NumV, NumI, NumFET int
	Nodes, Branches                                 int
}

// Stats counts elements.
func (n *Netlist) Stats() Stats {
	return Stats{
		NumR: len(n.Resistors), NumC: len(n.Capacitors),
		NumL: len(n.Inductors), NumMutual: len(n.Mutuals),
		NumV: len(n.VSources), NumI: len(n.ISources),
		NumFET: len(n.MOSFETs),
		Nodes:  n.NumNodes(), Branches: n.numBranches(),
	}
}
