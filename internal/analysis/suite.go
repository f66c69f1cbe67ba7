// Package analysis assembles the repo's invariant suite: the eight
// codebase-specific passes plus the directive validator that keeps the
// suppression mechanism honest. cmd/cfslint drives the suite both
// standalone and as a `go vet -vettool`; the analysistest harness
// drives each pass over its testdata.
//
// The passes encode, as compiler checks, the invariants this codebase
// earned the hard way:
//
//	nomapiter    map-order nondeterminism feeding output (the PR 2 class)
//	noclock      ambient time/rand in engine packages (the PR 3/4 class)
//	ledger       single-source probe accounting (the double-booked-ping class)
//	obsnil       nil-safe observability from both sides of the API
//	facsetmix    facility-bitset algebra stays behind its facIndex guards
//
// and, since PR 10, the flow-aware serving invariants built on the
// framework's CFG + def-use substrate:
//
//	snapconsist  one System.Current() load per request, threaded everywhere
//	goleak       every daemon go statement has a provable termination edge
//	hotalloc     //cfslint:hotpath functions reject alloc-prone constructs
package analysis

import (
	"facilitymap/internal/analysis/facsetmix"
	"facilitymap/internal/analysis/framework"
	"facilitymap/internal/analysis/goleak"
	"facilitymap/internal/analysis/hotalloc"
	"facilitymap/internal/analysis/ledger"
	"facilitymap/internal/analysis/noclock"
	"facilitymap/internal/analysis/nomapiter"
	"facilitymap/internal/analysis/obsnil"
	"facilitymap/internal/analysis/snapconsist"
)

// Suite returns the full analyzer set in reporting order.
func Suite() []*framework.Analyzer {
	core := []*framework.Analyzer{
		nomapiter.Analyzer,
		noclock.Analyzer,
		ledger.Analyzer,
		obsnil.Analyzer,
		facsetmix.Analyzer,
		snapconsist.Analyzer,
		goleak.Analyzer,
		hotalloc.Analyzer,
	}
	names := make([]string, len(core))
	for i, a := range core {
		names[i] = a.Name
	}
	return append(core, framework.DirectivesAnalyzer(names))
}
