package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain implements "bench compare BASE_DIR HEAD_DIR": it reads the
// result files two sets of runs wrote with --out, and for every
// (workload, metric) pair reports each side's median and quartiles over
// its runs and the ratio of the medians with its base. End-to-end
// metrics also get a verdict against their bound; the exit code is 1
// when any is worse, or when the head fails more ops than the base.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare BASE_DIR HEAD_DIR")
		return 2
	}
	base, err := loadResults(args[0])
	if err == nil && len(base) == 0 {
		err = fmt.Errorf("no result files in %s", args[0])
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	head, err := loadResults(args[1])
	if err == nil && len(head) == 0 {
		err = fmt.Errorf("no result files in %s", args[1])
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	rows, regressed := compareResults(base, head)
	fmt.Fprintf(stdout, "base: %s\nhead: %s\n", describeMachines(base), describeMachines(head))
	fmt.Fprintf(stdout, "%-8s %-38s %-6s %-36s %-36s %-28s %s\n", "workload", "metric", "unit", "base median [q1, q3] n", "head median [q1, q3] n", "head/base (base)", "verdict")
	for _, r := range rows {
		fmt.Fprintln(stdout, r)
	}
	if regressed {
		return 1
	}
	return 0
}

// loadResults reads every result file in dir, grouped by workload.
func loadResults(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" || r.Metrics == nil {
			return nil, fmt.Errorf("%s: not a bench result file", p)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	return out, nil
}

func describeMachines(rs map[string][]*result) string {
	seen := map[string]bool{}
	var out []string
	for _, list := range rs {
		for _, r := range list {
			m := r.Machine
			s := fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s, workers %d, commit %s", m.CPUModel, m.NProc, m.GOMAXPROCS, m.GoVersion, m.Workers, m.Commit)
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	sort.Strings(out)
	return strings.Join(out, "; ")
}

// verdict classifies one end-to-end metric. A side whose runs spread
// wider than the bound cannot show a change of that size, so the pair
// is unresolved unless every head run beats every base run.
func verdict(d metricDef, base, head []float64) string {
	b, h := summarize(base), summarize(head)
	lower := d.Better == "lower"
	beats := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	if b.spread() > d.Bound || h.spread() > d.Bound {
		for _, x := range head {
			for _, y := range base {
				if !beats(x, y) {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	limit := b.Median * (1 + d.Bound)
	if !lower {
		limit = b.Median * (1 - d.Bound)
	}
	switch {
	case beats(limit, h.Median):
		return "WORSE"
	case beats(h.Median, b.Median) && math.Abs(h.Median-b.Median) > b.Q3-b.Q1:
		return "better"
	}
	return "same"
}

// compareResults builds one report row per (workload, metric) present on
// both sides, plus a failure row per workload, and reports whether any
// verdict is WORSE.
func compareResults(base, head map[string][]*result) (rows []string, regressed bool) {
	var names []string
	for w := range base {
		if _, ok := head[w]; ok {
			names = append(names, w)
		}
	}
	sort.Slice(names, func(i, j int) bool { return workloadIndex(names[i]) < workloadIndex(names[j]) })
	for _, w := range names {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			bv, hv := metricValues(base[w], d.Name), metricValues(head[w], d.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			b, h := summarize(bv), summarize(hv)
			v := ""
			if d.Bound > 0 {
				v = verdict(d, bv, hv)
				regressed = regressed || v == "WORSE"
			}
			ratio := "-"
			if b.Median != 0 {
				ratio = fmt.Sprintf("%.4f (%.5g)", h.Median/b.Median, b.Median)
			}
			rows = append(rows, fmt.Sprintf("%-8s %-38s %-6s %-36s %-36s %-28s %s",
				w, d.Name, d.Unit, sideString(b), sideString(h), ratio, v))
		}
		bf, hf := failFraction(base[w]), failFraction(head[w])
		v := "same"
		if hf > bf {
			v, regressed = "WORSE", true
		}
		rows = append(rows, fmt.Sprintf("%-8s %-38s %-6s %-36.6g %-36.6g %-28s %s", w, "failed/attempted", "ratio", bf, hf, "-", v))
	}
	return rows, regressed
}

func sideString(s summary) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] %d", s.Median, s.Q1, s.Q3, s.N)
}

func workloadIndex(name string) int {
	for i, w := range workloads {
		if w.Name == name {
			return i
		}
	}
	return len(workloads)
}

func metricValues(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failFraction(rs []*result) float64 {
	att, fail := 0, 0
	for _, r := range rs {
		att += r.Attempted
		fail += r.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(fail) / float64(att)
}
