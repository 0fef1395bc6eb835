package circuit

import (
	"strings"
	"testing"
)

func TestWriteSpiceBasic(t *testing.T) {
	n := New()
	n.AddV("v", "in", "0", Pulse{V1: 0, V2: 1.8, Delay: 1e-10, Rise: 5e-11, Width: 1e-9, Fall: 5e-11})
	n.AddR("r", "in", "mid", 50)
	la := n.AddL("la", "mid", "out", 1e-9)
	lb := n.AddL("lb", "out", "0", 2e-9)
	n.AddM("m", la, lb, 0.5e-9)
	n.AddC("c", "out", "0", 1e-13)
	n.AddI("i", "out", "0", DC(1e-3))
	n.AddNMOS("mn", "out", "in", "0", TypicalNMOS(1))
	n.AddPMOS("mp", "out", "in", "vdd", TypicalPMOS(1))

	var b strings.Builder
	if err := WriteSpice(&b, n, "test deck"); err != nil {
		t.Fatal(err)
	}
	deck := b.String()
	for _, want := range []string{
		"* test deck",
		"R0 in mid 50",
		"L0 mid out 1e-09",
		"L1 out 0 2e-09",
		"K0 L0 L1 0.353553", // 0.5n / sqrt(1n*2n)
		"C0 out 0 1e-13",
		"V0 in 0 PULSE(0 1.8 1e-10 5e-11 5e-11 1e-09 1)",
		"I0 out 0 DC 0.001",
		"M0 out in 0 0 mnmos",
		"M1 out in vdd vdd mpmos",
		".model mnmos_vt0.45_k0.002_l0.05 NMOS (LEVEL=1 VTO=0.45",
		".model mpmos_vt0.45_k0.002_l0.05 PMOS (LEVEL=1 VTO=-0.45",
		".end",
	} {
		if !strings.Contains(deck, want) {
			t.Errorf("deck missing %q:\n%s", want, deck)
		}
	}
}

func TestWriteSpiceWaveforms(t *testing.T) {
	n := New()
	n.AddV("v1", "a", "0", PWL{Times: []float64{0, 1e-9}, Values: []float64{0, 1}})
	n.AddV("v2", "b", "0", Sine{Offset: 0.9, Amplitude: 0.1, Freq: 1e9})
	n.AddV("v3", "c", "0", Shifted{W: Pulse{V1: 0, V2: 1, Delay: 1e-10, Rise: 1e-11, Width: 1e-9, Fall: 1e-11}, Dt: 2e-10})
	n.AddV("v4", "d", "0", Scaled{W: DC(2), K: 3})
	var b strings.Builder
	if err := WriteSpice(&b, n, ""); err != nil {
		t.Fatal(err)
	}
	deck := b.String()
	for _, want := range []string{
		"PWL(0 0 1e-09 1)",
		"SIN(0.9 0.1 1e+09 0)",
		"PULSE(0 1 3e-10", // shifted delay folded in
		"DC 6",            // scaled sampled at t=0
	} {
		if !strings.Contains(deck, want) {
			t.Errorf("deck missing %q:\n%s", want, deck)
		}
	}
}

func TestWriteSpiceRejectsKGroups(t *testing.T) {
	n := New()
	li := n.AddL("l", "a", "0", 0)
	n.AddKGroup("k", []int{li}, [][]float64{{1e9}})
	var b strings.Builder
	if err := WriteSpice(&b, n, ""); err == nil {
		t.Errorf("K-group export accepted")
	}
}

func TestWriteSpiceZeroInductorMutual(t *testing.T) {
	n := New()
	la := n.AddL("la", "a", "0", 0)
	lb := n.AddL("lb", "b", "0", 1e-9)
	n.AddM("m", la, lb, 1e-10)
	var b strings.Builder
	if err := WriteSpice(&b, n, ""); err == nil {
		t.Errorf("mutual on zero inductor accepted")
	}
}
