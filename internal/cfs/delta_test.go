package cfs

import (
	"fmt"
	"reflect"
	"testing"

	"facilitymap/internal/alias"
	"facilitymap/internal/bgp"
	"facilitymap/internal/delta"
	"facilitymap/internal/ip2asn"
	"facilitymap/internal/platform"
	"facilitymap/internal/registry"
	"facilitymap/internal/remote"
	"facilitymap/internal/trace"
	"facilitymap/internal/world"
)

// deltaEnv is one simulated environment shared by the two legs of a
// delta differential: the incremental leg mutates env.db in place via
// ApplyDelta, the fresh leg runs on a pre-mutation clone with the same
// log replayed onto it. The measurement service is shared — remote
// verdicts are stream-stable (min-of-5 pings against a 2ms threshold),
// so both legs classify members identically even though their RTT
// draws differ.
type deltaEnv struct {
	w      *world.World
	svc    *platform.Service
	db     *registry.Database
	ipasn  *ip2asn.Service
	det    *remote.Detector
	prober *alias.Prober
	corpus Observations
	seed   int64
}

func buildDeltaEnv(t testing.TB, wcfg world.Config, seed int64) *deltaEnv {
	t.Helper()
	w := world.Generate(wcfg)
	rt := bgp.Compute(w)
	engine := trace.New(w, rt, seed)
	fleet := platform.Deploy(w, platform.DefaultDeploy())
	svc := platform.NewService(w, fleet, engine, rt)
	db := registry.Collect(w, registry.DefaultConfig())
	s := &stack{
		w: w, rt: rt, engine: engine, fleet: fleet, svc: svc, db: db,
		ipasn: ip2asn.New(w),
	}
	var sessions []SessionObservation
	for _, vp := range fleet.ByKind(platform.LookingGlass) {
		for _, sess := range svc.LookingGlassSessions(vp) {
			sessions = append(sessions, SessionObservation{
				LGAS: vp.AS, PeerIP: sess.PeerIP, PeerAS: sess.PeerAS,
			})
		}
	}
	return &deltaEnv{
		w: w, svc: svc, db: db, ipasn: s.ipasn,
		det:    remote.NewDetector(svc, db),
		prober: alias.NewProber(w, seed+7),
		corpus: Observations{Paths: s.initialCorpus(), Sessions: sessions},
		seed:   seed,
	}
}

func copyObs(o Observations) Observations {
	return Observations{
		Paths:    append([]trace.Path(nil), o.Paths...),
		Sessions: append([]SessionObservation(nil), o.Sessions...),
	}
}

// freshOn runs a brand-new pipeline over the given database and corpus
// in env's environment — the reference leg of a delta differential.
// The prober is rebuilt from the environment seed, so its probe stream
// matches both the initial incremental run and a post-ResetStream
// replay.
func freshOn(t testing.TB, env *deltaEnv, db *registry.Database, cfg Config, corpus Observations) *Result {
	t.Helper()
	det := remote.NewDetector(env.svc, db)
	prober := alias.NewProber(env.w, env.seed+7)
	p := mustNew(t, cfg, db, env.ipasn, env.svc, det, prober)
	return p.RunObservations(corpus)
}

// requireSameFixedPoint is the delta differential's equality check:
// interfaces, links, provenance and the post-pass counters must match
// bit for bit. History and Epoch are deliberately excluded — an
// incremental epoch's convergence curve measures the repair, not the
// fixed point.
func requireSameFixedPoint(t *testing.T, label string, inc, fresh *Result) {
	t.Helper()
	if len(inc.Interfaces) != len(fresh.Interfaces) {
		t.Fatalf("%s: interface count %d vs fresh %d", label, len(inc.Interfaces), len(fresh.Interfaces))
	}
	for ip, ia := range inc.Interfaces {
		ib, ok := fresh.Interfaces[ip]
		if !ok {
			t.Fatalf("%s: interface %v missing from fresh result", label, ip)
		}
		if !reflect.DeepEqual(ia, ib) {
			t.Fatalf("%s: interface %v differs:\n  inc:   %+v\n  fresh: %+v", label, ip, ia, ib)
		}
	}
	if len(inc.Links) != len(fresh.Links) {
		t.Fatalf("%s: link count %d vs fresh %d", label, len(inc.Links), len(fresh.Links))
	}
	for i := range inc.Links {
		if *inc.Links[i] != *fresh.Links[i] {
			t.Fatalf("%s: link %d differs:\n  inc:   %+v\n  fresh: %+v", label, i, *inc.Links[i], *fresh.Links[i])
		}
	}
	if len(inc.Provenance) != len(fresh.Provenance) {
		t.Fatalf("%s: provenance entries %d vs fresh %d", label, len(inc.Provenance), len(fresh.Provenance))
	}
	for ip, notes := range inc.Provenance {
		if !reflect.DeepEqual(notes, fresh.Provenance[ip]) {
			t.Fatalf("%s: provenance for %v differs:\n  inc:   %v\n  fresh: %v", label, ip, notes, fresh.Provenance[ip])
		}
	}
	if inc.MissingFacilityData != fresh.MissingFacilityData ||
		inc.FarEndInferences != fresh.FarEndInferences ||
		inc.ProximityInferences != fresh.ProximityInferences ||
		inc.MergeConflicts != fresh.MergeConflicts {
		t.Fatalf("%s: counters differ: inc={missing:%d farend:%d prox:%d merge:%d} fresh={missing:%d farend:%d prox:%d merge:%d}",
			label,
			inc.MissingFacilityData, inc.FarEndInferences, inc.ProximityInferences, inc.MergeConflicts,
			fresh.MissingFacilityData, fresh.FarEndInferences, fresh.ProximityInferences, fresh.MergeConflicts)
	}
}

// churnSplit generates a reproducible churn log over env's world and
// partitions it into registry-only (surgical) and full batches.
func churnSplit(t testing.TB, w *world.World, n int, seed int64) (surgical, mixed []delta.Delta) {
	t.Helper()
	log, _ := delta.Churn(w, n, seed)
	for _, d := range log {
		if d.Kind.WorldExpressible() {
			surgical = append(surgical, d)
		}
	}
	if len(surgical) == 0 {
		t.Fatalf("churn(%d, seed=%d) produced no facility deltas", n, seed)
	}
	return surgical, log
}

// TestDeltaSurgicalMatchesFresh is the locked guarantee for
// facility-list deltas: two ApplyDelta batches repaired in place must
// land on the bit-for-bit fixed point of a fresh run over the doubly
// mutated registry — across worlds, seeds and alias schedules.
//
// The schedule axis covers a single resolve before iteration 1, where
// interface owners are fixed for the entire run, and the shipped
// multi-round DefaultConfig().AliasRounds, which the daemon runs (see
// DESIGN.md, "Delta ingestion and snapshots"). Follow-ups stay off: a
// surgical epoch never re-measures.
func TestDeltaSurgicalMatchesFresh(t *testing.T) {
	schedules := []struct {
		name   string
		rounds []int
	}{
		{"single", []int{1}},
		{"default", DefaultConfig().AliasRounds},
	}
	// The w=1/s=0 level names the serial engine: one worker, no shards.
	for _, seed := range []int64{23, 101, 7777} {
		t.Run(fmt.Sprintf("small/seed=%d/w=1/s=0", seed), func(t *testing.T) {
			for _, sc := range schedules {
				t.Run("alias="+sc.name, func(t *testing.T) {
					t.Parallel()
					runSurgicalDifferential(t, world.Small(), seed, sc.rounds, 120)
				})
			}
		})
	}
	t.Run("medium/seed=42/w=1/s=0", func(t *testing.T) {
		if testing.Short() {
			t.Skip("medium-world differential run is slow")
		}
		for _, sc := range schedules {
			t.Run("alias="+sc.name, func(t *testing.T) {
				t.Parallel()
				runSurgicalDifferential(t, world.Medium(), 42, sc.rounds, 200)
			})
		}
	})
}

func runSurgicalDifferential(t *testing.T, wcfg world.Config, seed int64, aliasRounds []int, churnN int) {
	t.Helper()
	env := buildDeltaEnv(t, wcfg, seed)
	cfg := DefaultConfig()
	cfg.MaxIterations = 10
	cfg.UseTargeted = false
	cfg.TraceProvenance = true
	cfg.AliasRounds = aliasRounds

	p := mustNew(t, cfg, env.db, env.ipasn, env.svc, env.det, env.prober)
	res0 := p.RunObservations(copyObs(env.corpus))
	if res0.Epoch != 0 {
		t.Fatalf("initial run returned epoch %d, want 0", res0.Epoch)
	}

	batch1, _ := churnSplit(t, env.w, churnN, seed*3+1)
	batch2, _ := churnSplit(t, env.w, churnN, seed*5+2)

	// Clone before ApplyDelta: the incremental leg mutates env.db in
	// place, and the fresh leg needs the pre-delta registry.
	db2 := env.db.Clone()

	res1, err := p.ApplyDelta(batch1)
	if err != nil {
		t.Fatalf("ApplyDelta batch 1: %v", err)
	}
	if res1.Epoch != 1 {
		t.Fatalf("first delta epoch numbered %d, want 1", res1.Epoch)
	}
	res2, err := p.ApplyDelta(batch2)
	if err != nil {
		t.Fatalf("ApplyDelta batch 2: %v", err)
	}
	if res2.Epoch != 2 {
		t.Fatalf("second delta epoch numbered %d, want 2", res2.Epoch)
	}

	// Epoch snapshots are immutable: the earlier epoch must not have
	// been disturbed by the later one.
	if res1.Epoch != 1 || len(res1.Links) == 0 {
		t.Fatal("epoch-1 snapshot mutated by epoch 2")
	}

	delta.ApplyToDatabase(db2, batch1)
	delta.ApplyToDatabase(db2, batch2)
	fresh := freshOn(t, env, db2, cfg, copyObs(env.corpus))
	requireSameFixedPoint(t, "surgical", res2, fresh)
}

// TestDeltaReingestMatchesFresh covers the other strategy: a batch
// containing membership, session or cross-connect deltas triggers a
// corpus re-ingestion, which must equal a fresh run over the mutated
// registry and the delta-adjusted corpus, under a multi-round alias
// schedule.
func TestDeltaReingestMatchesFresh(t *testing.T) {
	// The w=1/s=0 suffix names the serial engine: one worker, no shards.
	for _, seed := range []int64{23, 101, 7777} {
		t.Run(fmt.Sprintf("small/seed=%d/w=1/s=0", seed), func(t *testing.T) {
			t.Parallel()
			runReingestDifferential(t, world.Small(), seed)
		})
	}
	t.Run("medium/seed=42/w=1/s=0", func(t *testing.T) {
		if testing.Short() {
			t.Skip("medium-world differential run is slow")
		}
		t.Parallel()
		runReingestDifferential(t, world.Medium(), 42)
	})
}

func runReingestDifferential(t *testing.T, wcfg world.Config, seed int64) {
	t.Helper()
	env := buildDeltaEnv(t, wcfg, seed)
	cfg := DefaultConfig()
	cfg.MaxIterations = 10
	cfg.UseTargeted = false
	cfg.TraceProvenance = true
	cfg.AliasRounds = []int{1, 5}

	p := mustNew(t, cfg, env.db, env.ipasn, env.svc, env.det, env.prober)
	_ = p.RunObservations(copyObs(env.corpus))

	_, mixed := churnSplit(t, env.w, 80, seed*7+3)
	hasObs := false
	for _, d := range mixed {
		if !d.Kind.WorldExpressible() {
			hasObs = true
			break
		}
	}
	if !hasObs {
		t.Fatal("churn log has no observation/membership deltas; reingest path untested")
	}

	db2 := env.db.Clone()
	res1, err := p.ApplyDelta(mixed)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if res1.Epoch != 1 {
		t.Fatalf("delta epoch numbered %d, want 1", res1.Epoch)
	}

	delta.ApplyToDatabase(db2, mixed)
	corpus2 := copyObs(env.corpus)
	ApplyObservationDeltas(&corpus2, mixed)
	fresh := freshOn(t, env, db2, cfg, corpus2)
	requireSameFixedPoint(t, "reingest", res1, fresh)
}

// TestDeltaAfterTargetedRun exercises corpus retention: an initial run
// with targeted follow-ups enabled accumulates its follow-up paths into
// the retained corpus, and a re-ingestion epoch replays them — so the
// fixed point equals a targeted-off fresh run over exactly that
// enlarged corpus.
func TestDeltaAfterTargetedRun(t *testing.T) {
	env := buildDeltaEnv(t, world.Small(), 23)
	cfg := DefaultConfig()
	cfg.MaxIterations = 10
	cfg.FollowUpBudget = 200
	cfg.UseTargeted = true
	cfg.TraceProvenance = true
	cfg.AliasRounds = []int{1, 5}

	p := mustNew(t, cfg, env.db, env.ipasn, env.svc, env.det, env.prober)
	_ = p.RunObservations(copyObs(env.corpus))

	retained := p.Corpus()
	if len(retained.Paths) <= len(env.corpus.Paths) {
		t.Fatalf("targeted run retained %d paths, want more than the %d ingested",
			len(retained.Paths), len(env.corpus.Paths))
	}

	// Only non-surgical kinds: force the re-ingestion strategy.
	_, mixed := churnSplit(t, env.w, 80, 77)
	var obsOnly []delta.Delta
	for _, d := range mixed {
		if !d.Kind.WorldExpressible() {
			obsOnly = append(obsOnly, d)
		}
	}
	if len(obsOnly) == 0 {
		t.Fatal("churn produced no observation deltas")
	}

	db2 := env.db.Clone()
	res1, err := p.ApplyDelta(obsOnly)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}

	delta.ApplyToDatabase(db2, obsOnly)
	corpus2 := retained
	ApplyObservationDeltas(&corpus2, obsOnly)
	cfg2 := cfg
	cfg2.UseTargeted = false
	fresh := freshOn(t, env, db2, cfg2, corpus2)
	requireSameFixedPoint(t, "targeted-retention", res1, fresh)
}

// TestApplyDeltaRejections pins the API contract: no deltas before an
// initial run, no deltas on the rescan engine, no unknown kinds.
func TestApplyDeltaRejections(t *testing.T) {
	env := buildDeltaEnv(t, world.Small(), 23)
	cfg := DefaultConfig()
	cfg.MaxIterations = 5
	cfg.UseTargeted = false

	p := mustNew(t, cfg, env.db, env.ipasn, env.svc, env.det, env.prober)
	if _, err := p.ApplyDelta(nil); err == nil {
		t.Fatal("ApplyDelta before Run accepted")
	}
	_ = p.RunObservations(copyObs(env.corpus))
	if _, err := p.ApplyDelta([]delta.Delta{{Kind: "frobnicate"}}); err == nil {
		t.Fatal("unknown delta kind accepted")
	}

	rcfg := cfg
	rcfg.Engine = EngineRescan
	rp := mustNew(t, rcfg, env.db, env.ipasn, env.svc, env.det, env.prober)
	_ = rp.RunObservations(copyObs(env.corpus))
	if _, err := rp.ApplyDelta(nil); err == nil {
		t.Fatal("rescan engine accepted deltas despite having no dependency index")
	}
}
