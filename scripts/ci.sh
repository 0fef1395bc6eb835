#!/bin/sh
# Full verification gate: build, tests (including the golden-file suite
# and property tests), vet, formatting, and the race detector over the
# concurrency-bearing packages. Run from anywhere in the repo.
set -e
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

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
# engine runs two concurrent sessions with conflicting configs; extract
# builds nested-basis operators from concurrent goroutines sharing one
# kernel cache; geom races parallel cluster-tree builds over one index;
# serve drives the multi-tenant job server with conflicting tenant
# configs over the shared bounded cache and mid-stream disconnects;
# matrix runs concurrent multigrid V-cycles with conflicting worker
# counts against one shared hierarchy; grid covers the streaming
# assembly feeding worker-parallel MG solves; sweep stresses the
# adaptive refine loop under parallel batch solvers; mesh pins the
# lowering's determinism contract under parallel cluster-tree builds
# over plane filament grids.
echo "== race detector (matrix, geom, extract, fasthenry, sim, engine, serve, grid, sweep, mesh)"
go test -race ./internal/matrix ./internal/geom ./internal/extract ./internal/fasthenry ./internal/sim ./internal/engine ./internal/serve ./internal/grid ./internal/sweep ./internal/mesh

# No mutable package-level tuning state: run configuration belongs in
# engine.Config / the per-layer option structs, not process-wide Set*
# switches. No exemptions.
echo "== no package-level Set* tuning switches"
setters=$(grep -rnE '^func Set[A-Z]' internal cmd --include='*.go' \
	| grep -v '_test\.go' || true)
if [ -n "$setters" ]; then
	echo "package-level setter(s) found (use engine.Config instead):" >&2
	echo "$setters" >&2
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
