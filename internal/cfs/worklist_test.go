package cfs

import (
	"fmt"
	"slices"
	"testing"

	"facilitymap/internal/world"
)

func engineConfig(engine string) Config {
	cfg := DefaultConfig()
	cfg.Engine = engine
	return cfg
}

func totalRecomputed(r *Result) int {
	n := 0
	for _, h := range r.History {
		n += h.Recomputed
	}
	return n
}

// TestWorklistMatchesRescan is the engine differential harness: the
// same (world, seed) run under the rescan engine and the worklist
// engine must produce bit-for-bit identical results — same inferences,
// links, convergence curve, conflict counts and provenance — because
// dirty-set scheduling may skip work but never reorder the measurements.
// On the default world the worklist must also do strictly less work.
// The workers=1 suffix names the one-goroutine engine CFS runs on.
func TestWorklistMatchesRescan(t *testing.T) {
	for _, seed := range []int64{23, 101, 7777} {
		t.Run(fmt.Sprintf("small/seed=%d/workers=1", seed), func(t *testing.T) {
			t.Parallel()
			a := freshRun(t, world.Small(), seed, engineConfig(EngineRescan))
			b := freshRun(t, world.Small(), seed, engineConfig(EngineWorklist))
			requireCrossEngineResults(t, "small world", a, b)
		})
	}
	for _, seed := range []int64{23, 101, 7777} {
		t.Run(fmt.Sprintf("default/seed=%d/workers=1", seed), func(t *testing.T) {
			if testing.Short() {
				t.Skip("default-world differential runs are slow")
			}
			t.Parallel()
			rescan := defaultWorldConfig()
			rescan.Engine = EngineRescan
			wl := defaultWorldConfig()
			wl.Engine = EngineWorklist
			a := freshRun(t, world.Default(), seed, rescan)
			b := freshRun(t, world.Default(), seed, wl)
			requireCrossEngineResults(t, "default world", a, b)
			if ra, rb := totalRecomputed(a), totalRecomputed(b); rb >= ra {
				t.Errorf("worklist recomputed %d proposals, rescan %d: want strictly fewer", rb, ra)
			}
		})
	}
}

// TestWorklistProvenanceMatchesRescan pins the most ordering-sensitive
// output: the per-interface constraint trace must be identical because
// provenance records only set-changing applications, and those happen
// in the same order under both engines.
func TestWorklistProvenanceMatchesRescan(t *testing.T) {
	rescan := engineConfig(EngineRescan)
	rescan.TraceProvenance = true
	wl := rescan
	wl.Engine = EngineWorklist
	a := freshRun(t, world.Small(), 23, rescan)
	b := freshRun(t, world.Small(), 23, wl)
	requireCrossEngineResults(t, "provenance", a, b)
}

// TestWorklistDoesLessWork: after the first iteration the worklist's
// dirty set must be a strict subset of the adjacency list the rescan
// engine rescans (new observations only), on the small world too.
func TestWorklistDoesLessWork(t *testing.T) {
	a := freshRun(t, world.Small(), 23, engineConfig(EngineRescan))
	b := freshRun(t, world.Small(), 23, engineConfig(EngineWorklist))
	if len(b.History) < 2 {
		t.Fatalf("run converged in %d iterations; need 2+ to compare engines", len(b.History))
	}
	for i := 1; i < len(b.History); i++ {
		if b.History[i].DirtyAdjs >= a.History[i].DirtyAdjs {
			t.Errorf("iteration %d: worklist visited %d adjacencies, rescan %d",
				i+1, b.History[i].DirtyAdjs, a.History[i].DirtyAdjs)
		}
	}
	if ra, rb := totalRecomputed(a), totalRecomputed(b); rb >= ra {
		t.Errorf("worklist recomputed %d, rescan %d: want strictly fewer", rb, ra)
	}
}

// TestWorklistInvalidation exercises the registry-facing half of the
// dependency index: an AS's and an IXP's facility-list entries name
// their dependent adjacencies, and re-proposing those against an
// unchanged registry is a no-op.
func TestWorklistInvalidation(t *testing.T) {
	s := buildStack(t, world.Small())
	cfg := DefaultConfig()
	p := mustNew(t, cfg, s.db, s.ipasn, s.svc, s.det, s.prober)
	st := p.newState()
	w := newWorklist(st)
	st.ingestPaths(s.initialCorpus())
	w.resolveAliases()

	dirty, _ := w.constraintPass()
	if dirty == 0 {
		t.Fatal("ingestion seeded no dirty adjacencies")
	}
	w.aliasPass()
	if d, _ := w.constraintPass(); d != 0 {
		t.Fatalf("dirty set not drained: %d adjacencies still enqueued", d)
	}

	var pub *Adjacency
	pubIdx := -1
	for i, a := range st.adjOrder {
		if a.Public && a.NearAS != 0 {
			pub, pubIdx = a, i
			break
		}
	}
	if pub == nil {
		t.Fatal("no public adjacency with a resolved owner in the corpus")
	}

	if !slices.Contains(w.asAdjs[pub.NearAS], pubIdx) {
		t.Fatalf("AS %v's facility-list entry misses adjacency %d", pub.NearAS, pubIdx)
	}
	if !slices.Contains(w.ixpAdjs[pub.IXP], pubIdx) {
		t.Fatalf("IXP %d's facility-list entry misses adjacency %d", pub.IXP, pubIdx)
	}
	for _, idx := range w.asAdjs[pub.NearAS] {
		w.dirtyAdj[idx] = true
	}
	for _, idx := range w.ixpAdjs[pub.IXP] {
		w.dirtyAdj[idx] = true
	}
	st.changed = false
	if d, _ := w.constraintPass(); d == 0 {
		t.Fatal("dirtied adjacencies were not reprocessed")
	}
	if st.changed {
		t.Error("re-proposing against an unchanged registry narrowed a candidate set")
	}
}
