#!/bin/sh
# Full verification gate: build, tests (including the golden-file suite
# and property tests), vet, formatting, and the race detector over the
# concurrency-bearing packages. Run from anywhere in the repo.
set -e
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

# Every example runs once end to end, not only compiles: they call the
# internal APIs the way a user would. About 1 s in total on a 2-vCPU
# Xeon.
echo "== run examples"
for ex in examples/*/; do
	go run "./$ex" >/dev/null
done

echo "== go test (unit + golden + property)"
go test ./...

echo "== go vet"
go vet ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# The fasthenry package includes the iterative-sweep race coverage: a
# shared ACA-compressed operator driven by parallel frequency workers;
# engine runs two concurrent sessions with conflicting configs next to
# concurrent sparse transients; extract runs concurrent parallel
# partial-inductance assemblies and builds segment-level nested-basis
# operators from concurrent goroutines, each checked bit for bit
# against a serial build; geom races
# parallel cluster-tree builds over one index; serve drives the
# multi-tenant job server with conflicting tenant configs and
# mid-stream disconnects;
# matrix runs concurrent multigrid V-cycles with conflicting worker
# counts against one shared hierarchy; grid covers the streaming
# assembly feeding worker-parallel MG solves; sweep stresses the
# adaptive refine loop under parallel batch solvers; mesh pins the
# lowering's determinism contract under parallel cluster-tree builds
# over plane filament grids; core runs the Table 1 flows, whose loop
# flow extracts its two ladder frequencies concurrently, and the Fig. 1
# current analysis, whose MOSFET Newton refactors the serial sparse LU
# every iteration.
echo "== race detector (matrix, geom, extract, fasthenry, sim, engine, serve, grid, sweep, mesh, core)"
go test -race ./internal/matrix ./internal/geom ./internal/extract ./internal/fasthenry ./internal/sim ./internal/engine ./internal/serve ./internal/grid ./internal/sweep ./internal/mesh ./internal/core

# The bit-identity pins (solution hashes, pinned delays, the Fig. 1
# charges, the sparse Newton against its dense oracle, the multigrid
# grid transient with its DC start, and TestTranGridMGRepeatedStepsPin,
# which checks that the transient's repeated-step skip matches solving
# every step bit for bit) must hold at any worker count: GOMAXPROCS 1
# and 2 set the default worker count of the parallel kernels, sweeps,
# loop-frequency fan-out and grid time steps they cover.
# TestAdaptiveIterativeSweepPin and TestExactIterativeSweepPin are the
# exceptions that set their worker count: an iterative sweep
# warm-starts along each worker's chunk, so they pin each sweep worker
# count (1 and 2 adaptive; 1, 2 and 3 exact) separately, and must give
# those bits at either GOMAXPROCS.
echo "== bit-identity pins at 1 and 2 CPUs"
go test -count=1 -cpu 1,2 -run 'Pin' ./internal/matrix ./internal/fasthenry ./internal/sim ./internal/core

# The inductd job decoder is the program's one parser of outside input;
# fuzz it for a fixed time on top of its committed seed corpus.
echo "== fuzz the inductd job decoder (10 s)"
go test -run '^$' -fuzz FuzzJobRequest -fuzztime 10s ./internal/serve

# The AVX2 kernels have scalar-only stubs in internal/matrix's
# kernels_noasm.go and internal/extract's planar_noasm.go; a cross-vet
# and cross-build for arm64 keeps the two in step. Offline, 10-20 s on
# a 2-vCPU Xeon.
echo "== arm64 cross-vet and cross-build"
GOARCH=arm64 go vet ./internal/matrix ./internal/extract
GOARCH=arm64 go build ./...

# bench/ is its own Go module, so the root `go vet ./...` and
# `go test ./...` never compile it: an API change in extract or
# fasthenry that only the benchmark harness uses would break only the
# benchmark run. Offline, about 14 s on a 2-vCPU Xeon.
echo "== bench module vet and test"
go -C bench vet ./...
go -C bench test ./...

# Every internal package must be reached by a flow: a command, an
# example or the bench harness imports it, directly or not. A package
# only tests reach is dead code; delete it or wire it into a flow.
echo "== every internal package reached from cmd/, examples/ or bench/"
reached=$( { go list -deps ./cmd/... ./examples/... && go -C bench list -deps ./...; } )
unreached=$(go list ./internal/... | grep -vxF "$reached" || true)
if [ -n "$unreached" ]; then
	echo "internal package(s) no command, example or bench imports:" >&2
	echo "$unreached" >&2
	exit 1
fi

# No mutable package-level tuning state: run configuration belongs in
# engine.Config / the per-layer option structs, not process-wide Set*
# switches, and run state belongs to a session or a layer's own value,
# not to an uninitialized package-level var every run shares. No
# exemptions.
echo "== no package-level Set* tuning switches or uninitialized vars"
setters=$(grep -rnE '^func Set[A-Z]' internal cmd --include='*.go' \
	| grep -v '_test\.go' || true)
if [ -n "$setters" ]; then
	echo "package-level setter(s) found (use engine.Config instead):" >&2
	echo "$setters" >&2
	exit 1
fi
globals=$(grep -rnE '^var [A-Za-z_][A-Za-z0-9_]* [][*A-Za-z0-9_.]+$' internal cmd --include='*.go' \
	| grep -v '_test\.go' || true)
if [ -n "$globals" ]; then
	echo "package-level mutable var(s) found (give the state an owner):" >&2
	echo "$globals" >&2
	exit 1
fi

# No deprecated shims: an API that is superseded is deleted and its
# callers moved, so compatibility layers cannot build up again.
echo "== no Deprecated: markers in non-test code"
deprecated=$(grep -rn '// Deprecated:' internal cmd --include='*.go' \
	| grep -v '_test\.go' || true)
if [ -n "$deprecated" ]; then
	echo "deprecated API(s) found (delete them and move the callers):" >&2
	echo "$deprecated" >&2
	exit 1
fi

# One sparse assembly path: every sparse matrix is stamped into a
# matrix.Triplet append log and frozen by its one counting-sort freeze
# (MNA pencils once, onto one union pattern, by circuit.BuildSparse). A
# map keyed by (i, j) is a second builder: a hash insert per stamp and
# iteration in random order, the cost and the duplication the log
# removed. None may come back.
echo "== no map[[2]int]float64 sparse builders in non-test code"
maps=$(grep -rn 'map\[\[2\]int\]float64' internal cmd --include='*.go' \
	| grep -v '_test\.go' || true)
if [ -n "$maps" ]; then
	echo "map-backed sparse builder(s) found (stamp into a matrix.Triplet):" >&2
	echo "$maps" >&2
	exit 1
fi

# One fan-out layer: every parallel loop runs through
# matrix.ParallelRangeWorkers (contiguous chunks) or matrix.ParallelItems
# (per-item handout) in internal/matrix/workers.go, so each scheduling
# rule is written once. A sync.WaitGroup elsewhere is a second copy of
# one of them. The one exemption is geom's recursive cluster bisection,
# which spawns its two halves against a goroutine budget, not over a
# loop.
echo "== no sync.WaitGroup outside matrix/workers.go and geom/cluster.go in non-test code"
groups=$(grep -rn 'sync\.WaitGroup' internal cmd --include='*.go' \
	| grep -v '_test\.go' \
	| grep -v '^internal/matrix/workers\.go:' \
	| grep -v '^internal/geom/cluster\.go:' || true)
if [ -n "$groups" ]; then
	echo "hand-rolled fan-out(s) found (use matrix.ParallelRangeWorkers or matrix.ParallelItems):" >&2
	echo "$groups" >&2
	exit 1
fi

# Sweep-mode selection flows through engine.Config (SweepMode/SweepTol,
# parsed via engine.ParseSweepMode): no CLI constructs adaptive sweeps
# by importing internal/sweep directly.
echo "== no cmd/ imports of internal/sweep (use engine.Config)"
direct=$(grep -rn 'inductance101/internal/sweep' cmd --include='*.go' || true)
if [ -n "$direct" ]; then
	echo "cmd/ must configure sweeps through engine.Config, not internal/sweep:" >&2
	echo "$direct" >&2
	exit 1
fi

# Plane meshing flows through engine.Config (PlaneNW, validated
# fail-fast via mesh.ValidatePlaneNW): no CLI lowers geometry by
# importing internal/mesh directly — the lowering is the solvers'
# internal representation, not a command-line surface.
echo "== no cmd/ imports of internal/mesh (use engine.Config)"
direct=$(grep -rn 'inductance101/internal/mesh' cmd --include='*.go' || true)
if [ -n "$direct" ]; then
	echo "cmd/ must configure plane meshing through engine.Config, not internal/mesh:" >&2
	echo "$direct" >&2
	exit 1
fi

echo "CI OK"
