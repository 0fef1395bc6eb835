package circuit

// kMembers marks inductors whose branch row is governed by a KGroup
// instead of their own L.
func kMembers(n *Netlist) map[int]bool {
	km := make(map[int]bool)
	for _, kg := range n.KGroups {
		for _, li := range kg.Inductors {
			km[li] = true
		}
	}
	return km
}

// stampLinear walks the linear elements once, stamping conductances via
// addG and capacitances/inductances via addC. Any sink that sums the
// stamps in call order accumulates the same values, so the G and C
// BuildSparse freezes agree bit for bit with a dense assembly. Ground rows/columns are filtered here.
func stampLinear(n *Netlist, addGRaw, addCRaw func(i, j int, v float64), kMember map[int]bool) {
	addG := func(i, j int, v float64) {
		if i == groundIndex || j == groundIndex {
			return
		}
		addGRaw(i, j, v)
	}
	addC := func(i, j int, v float64) {
		if i == groundIndex || j == groundIndex {
			return
		}
		addCRaw(i, j, v)
	}
	for i := range n.Resistors {
		r := &n.Resistors[i]
		g := 1 / r.R
		addG(r.A, r.A, g)
		addG(r.B, r.B, g)
		addG(r.A, r.B, -g)
		addG(r.B, r.A, -g)
	}
	for i := range n.Capacitors {
		c := &n.Capacitors[i]
		addC(c.A, c.A, c.C)
		addC(c.B, c.B, c.C)
		addC(c.A, c.B, -c.C)
		addC(c.B, c.A, -c.C)
	}
	nn := n.NumNodes()
	for i := range n.Inductors {
		l := &n.Inductors[i]
		br := nn + l.Branch
		// KCL: branch current leaves A, enters B.
		addG(l.A, br, 1)
		addG(l.B, br, -1)
		if kMember[i] {
			continue // branch row stamped by the KGroup below
		}
		// Branch row: v_A - v_B - L di/dt = 0.
		addG(br, l.A, 1)
		addG(br, l.B, -1)
		addC(br, br, -l.L)
	}
	for i := range n.Mutuals {
		mu := &n.Mutuals[i]
		ba := nn + n.Inductors[mu.La].Branch
		bb := nn + n.Inductors[mu.Lb].Branch
		addC(ba, bb, -mu.M)
		addC(bb, ba, -mu.M)
	}
	for _, kg := range n.KGroups {
		// Branch rows: sum_j K_ij (v_Aj - v_Bj) - di_i/dt = 0.
		for gi, liI := range kg.Inductors {
			br := nn + n.Inductors[liI].Branch
			addC(br, br, -1)
			for gj, liJ := range kg.Inductors {
				k := kg.K[gi][gj]
				if k == 0 {
					continue
				}
				lj := &n.Inductors[liJ]
				addG(br, lj.A, k)
				addG(br, lj.B, -k)
			}
		}
	}
	for i := range n.VSources {
		v := &n.VSources[i]
		br := nn + v.Branch
		addG(v.A, br, 1)
		addG(v.B, br, -1)
		addG(br, v.A, 1)
		addG(br, v.B, -1)
	}
}
