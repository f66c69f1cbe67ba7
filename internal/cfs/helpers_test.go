package cfs

import (
	"reflect"
	"testing"

	"facilitymap/internal/alias"
	"facilitymap/internal/bgp"
	"facilitymap/internal/ip2asn"
	"facilitymap/internal/platform"
	"facilitymap/internal/registry"
	"facilitymap/internal/remote"
	"facilitymap/internal/trace"
	"facilitymap/internal/world"
)

// freshRun builds a brand-new stack for (world config, seed) and runs
// the pipeline once over the standard corpus plus looking-glass session
// listings. Equivalence tests must not share a stack between runs: the
// trace engine derives jitter from a global probe counter, so a second
// run on the same engine sees different RTT draws than the first.
func freshRun(t testing.TB, wcfg world.Config, seed int64, cfg Config) *Result {
	t.Helper()
	w := world.Generate(wcfg)
	rt := bgp.Compute(w)
	engine := trace.New(w, rt, seed)
	fleet := platform.Deploy(w, platform.DefaultDeploy())
	svc := platform.NewService(w, fleet, engine, rt)
	db := registry.Collect(w, registry.DefaultConfig())
	s := &stack{
		w: w, rt: rt, engine: engine, fleet: fleet, svc: svc, db: db,
		ipasn:  ip2asn.New(w),
		det:    remote.NewDetector(svc, db),
		prober: alias.NewProber(w, seed+7),
	}
	var sessions []SessionObservation
	for _, vp := range fleet.ByKind(platform.LookingGlass) {
		for _, sess := range svc.LookingGlassSessions(vp) {
			sessions = append(sessions, SessionObservation{
				LGAS: vp.AS, PeerIP: sess.PeerIP, PeerAS: sess.PeerAS,
			})
		}
	}
	if cfg.Obs != nil {
		// Instrument the whole stack, not just the pipeline, so obs-on
		// differential runs exercise every emission site.
		engine.Instrument(cfg.Obs)
		svc.Instrument(cfg.Obs)
	}
	p := mustNew(t, cfg, s.db, s.ipasn, s.svc, s.det, s.prober)
	return p.RunObservations(Observations{Paths: s.initialCorpus(), Sessions: sessions})
}

// scrubHistory copies an iteration history with the observational
// fields equivalence cannot cover zeroed out: WallTime always (wall
// clocks are not deterministic), and the engine work counters when the
// two runs used different engines (DirtyAdjs/Recomputed measure how
// much work an engine did, which is exactly what the engines differ
// in; everything else must still match bit for bit).
func scrubHistory(h []IterationStats, dropEngineCounters bool) []IterationStats {
	out := make([]IterationStats, len(h))
	copy(out, h)
	for i := range out {
		out[i].WallTime = 0
		if dropEngineCounters {
			out[i].DirtyAdjs = 0
			out[i].Recomputed = 0
		}
	}
	return out
}

// requireEqualResults fails the test with a field-level diagnosis if two
// results differ anywhere an exported field can differ. Result holds an
// unexported func (aliasSetOf), so reflect.DeepEqual on the whole
// struct is unusable; every other field is compared exhaustively.
func requireEqualResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	requireResultsMatch(t, label, a, b, false)
}

// requireCrossEngineResults is requireEqualResults for runs made with
// different engines: identical inferences, provenance and convergence
// curve, with only the per-engine work counters exempt.
func requireCrossEngineResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	requireResultsMatch(t, label, a, b, true)
}

func requireResultsMatch(t *testing.T, label string, a, b *Result, crossEngine bool) {
	t.Helper()
	if len(a.Interfaces) != len(b.Interfaces) {
		t.Fatalf("%s: interface count %d vs %d", label, len(a.Interfaces), len(b.Interfaces))
	}
	for ip, ia := range a.Interfaces {
		ib, ok := b.Interfaces[ip]
		if !ok {
			t.Fatalf("%s: interface %v missing from second result", label, ip)
		}
		if !reflect.DeepEqual(ia, ib) {
			t.Fatalf("%s: interface %v differs:\n  a: %+v\n  b: %+v", label, ip, ia, ib)
		}
	}
	if len(a.Links) != len(b.Links) {
		t.Fatalf("%s: link count %d vs %d", label, len(a.Links), len(b.Links))
	}
	for i := range a.Links {
		if *a.Links[i] != *b.Links[i] {
			t.Fatalf("%s: link %d differs:\n  a: %+v\n  b: %+v", label, i, *a.Links[i], *b.Links[i])
		}
	}
	ah, bh := scrubHistory(a.History, crossEngine), scrubHistory(b.History, crossEngine)
	if !reflect.DeepEqual(ah, bh) {
		t.Fatalf("%s: iteration histories differ:\n  a: %+v\n  b: %+v", label, ah, bh)
	}
	if a.MissingFacilityData != b.MissingFacilityData ||
		a.ProximityInferences != b.ProximityInferences ||
		a.FarEndInferences != b.FarEndInferences ||
		a.MergeConflicts != b.MergeConflicts {
		t.Fatalf("%s: counters differ: a={missing:%d prox:%d farend:%d merge:%d} b={missing:%d prox:%d farend:%d merge:%d}",
			label,
			a.MissingFacilityData, a.ProximityInferences, a.FarEndInferences, a.MergeConflicts,
			b.MissingFacilityData, b.ProximityInferences, b.FarEndInferences, b.MergeConflicts)
	}
	if !reflect.DeepEqual(a.Provenance, b.Provenance) {
		t.Fatalf("%s: provenance differs", label)
	}
}

// defaultWorldConfig is a trimmed all-features-on configuration that
// keeps a default-world run affordable in a test (a full DefaultConfig
// run takes ~10s; the differential test needs several runs). Every
// subsystem stays enabled.
func defaultWorldConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxIterations = 10
	cfg.FollowUpBudget = 200
	cfg.AliasRounds = []int{1, 5}
	return cfg
}
