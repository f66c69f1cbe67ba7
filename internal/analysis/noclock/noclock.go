// Package noclock forbids ambient nondeterminism sources inside the
// engine packages (internal/cfs, internal/trace, internal/delta), the
// snapshot facade (the root facilitymap package, whose publish-time
// table build must render byte-identical tables for a given
// snapshot) and the daemon layer (internal/serve, cmd/cfsd):
// wall-clock reads (time.Now, time.Since, time.Sleep) and anything
// from math/rand.
//
// The sanctioned sources, established by PRs 3–4, are:
//
//   - the injected clock Pipeline.now — the only wall-clock boundary
//     in cfs, feeding IterationStats.WallTime and never an inference
//     (its single time.Now mention carries a //cfslint:ignore with the
//     justification);
//   - the seeded mrand stream in internal/trace/fastrng.go, which
//     reproduces math/rand's sequence bit-for-bit from the engine's
//     probe-derived seeds (the file carries a //cfslint:file-ignore —
//     it is the wrapper whose existence lets everything else abstain);
//   - the embedded splitmix64 stream in internal/delta/rng.go — churn
//     logs are a pure function of (world, n, seed), so the generator
//     carries its own counter-mode RNG and never touches math/rand;
//   - the serve layer's injected latency clock (serve.Options.Now,
//     defaulting to an annotated time.Now) and cmd/cfsd's annotated
//     boot-timing reads — wall time there feeds logs and request
//     histograms, never an inference. time.NewTicker (the follow
//     tailer's poll) is deliberately not banned: waiting is fine,
//     reading the clock into state is not.
//
// A stray time.Now in an engine loop or a rand.New(rand.NewSource(..))
// beside the sanctioned stream would silently decouple runs from their
// seeds; this pass makes that a compile-time event.
package noclock

import (
	"go/ast"

	"facilitymap/internal/analysis/framework"
)

var clockFuncs = map[string]bool{"Now": true, "Since": true, "Sleep": true}

// Analyzer is the noclock pass.
var Analyzer = &framework.Analyzer{
	Name: "noclock",
	Doc: "forbid time.Now/time.Since/time.Sleep and all of math/rand in engine " +
		"packages; the injected clock and the fastrng stream are the only sanctioned sources",
	Packages: []string{"facilitymap", "internal/cfs", "internal/trace", "internal/delta", "internal/serve", "cmd/cfsd"},
	Run:      run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if clockFuncs[obj.Name()] {
					pass.Reportf(id.Pos(),
						"time.%s in an engine package: wall-clock reads are nondeterminism; use the injected clock (Pipeline.now) or annotate the boundary",
						obj.Name())
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(id.Pos(),
					"math/rand.%s in an engine package: draw from the seeded mrand/fastrng stream so the value sequence stays a function of the probe order",
					obj.Name())
			}
			return true
		})
	}
	return nil
}
