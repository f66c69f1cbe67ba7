package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"facilitymap"
	"facilitymap/internal/cfs"
	"facilitymap/internal/obs"
)

// facadeRun is one convergence through the public facade, the way a
// batch user runs it: NewSystem, MapInterconnections, Materialize(0).
type facadeRun struct {
	sys    *facilitymap.System
	m      *facilitymap.Mapping
	newenv time.Duration // NewSystem
	mapIx  time.Duration // MapInterconnections
	mat    time.Duration // Materialize(0)
	digest string        // SHA-256 over EachInterfaceJSON
	allocs uint64        // heap allocations during MapInterconnections+Materialize
	allocB uint64
	cpu    time.Duration // process CPU during MapInterconnections+Materialize
	matCPU time.Duration // process CPU during Materialize
}

func (f facadeRun) converge() time.Duration { return f.mapIx + f.mat }

// figures drops the system and mapping, keeping the timings, so a run
// can keep every world's figures without keeping every world.
func (f facadeRun) figures() facadeRun {
	f.sys, f.m = nil, nil
	return f
}

// facadePass runs one facade convergence. With a tracer it records the
// spans pipeline > {experiments.newenv, converge > {map, materialize}}.
// memStats adds an allocation count around the convergence (it stops
// the world twice, so only traced runs ask for it).
//
// o, when set, instruments the environment before the convergence, so
// later Apply calls feed its cfs counters.
func facadePass(tr *tracer, id string, cfg facilitymap.Config, memStats bool, o *obs.Obs) (facadeRun, error) {
	var fr facadeRun
	root := tr.begin(id, 0, "pipeline")
	var err error
	fr.newenv = tr.do(id, root.id, "experiments.newenv", func() {
		fr.sys, err = facilitymap.NewSystem(cfg)
	})
	if err != nil {
		return fr, err
	}
	if o != nil {
		fr.sys.Env.Instrument(o)
	}
	var m0, m1 runtime.MemStats
	if memStats {
		runtime.ReadMemStats(&m0)
	}
	cpu0 := processCPU()
	conv := tr.begin(id, root.id, "converge")
	fr.mapIx = tr.do(id, conv.id, "facilitymap.map_interconnections", func() {
		fr.m = fr.sys.MapInterconnections()
	})
	cpu1 := processCPU()
	fr.mat = tr.do(id, conv.id, "facilitymap.materialize", func() { fr.m.Materialize(0) })
	conv.end()
	cpu2 := processCPU()
	fr.cpu, fr.matCPU = cpu2-cpu0, cpu2-cpu1
	if memStats {
		runtime.ReadMemStats(&m1)
		fr.allocs = m1.Mallocs - m0.Mallocs
		fr.allocB = m1.TotalAlloc - m0.TotalAlloc
	}
	tr.do(id, root.id, "digest", func() { fr.digest = mappingDigest(fr.m) })
	root.end()
	return fr, nil
}

// mappingDigest is the SHA-256 of the mapping's NDJSON dump, the same
// bytes GET /v1/interfaces/stream serves.
func mappingDigest(m *facilitymap.Mapping) string {
	h := sha256.New()
	m.EachInterfaceJSON(func(rec []byte) bool {
		h.Write(rec)
		h.Write([]byte{'\n'})
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}

// stageRun is one convergence with the facade's MapInterconnections
// decomposed into the layer calls it makes (experiments.Env.
// RunCFSPipeline's sequence), each in its own span, on an instrumented
// environment so the cfs phase histograms and probe counters fill.
type stageRun struct {
	newenv, cfsNew, campaign, sessions, run time.Duration
	probesCampaign, probesFollowup          int64
	phases                                  map[string]time.Duration
	counters                                map[string]int64
	res                                     *cfs.Result
}

var phaseNames = []string{"alias_resolve", "constraint", "alias", "followup"}

func (s stageRun) stages() time.Duration { return s.cfsNew + s.campaign + s.sessions + s.run }

func (s stageRun) phaseSum() time.Duration {
	var t time.Duration
	for _, d := range s.phases {
		t += d
	}
	return t
}

// stagePass mirrors what MapInterconnections does for cfg (default CFS
// config, the facade's worker count and engine) through public layer
// APIs, so every stage is timed from outside the program.
func stagePass(tr *tracer, id string, cfg facilitymap.Config) (stageRun, error) {
	var s stageRun
	root := tr.begin(id, 0, "pipeline.stages")
	var sys *facilitymap.System
	var err error
	s.newenv = tr.do(id, root.id, "experiments.newenv", func() { sys, err = facilitymap.NewSystem(cfg) })
	if err != nil {
		return s, err
	}
	env := sys.Env
	o := obs.New(0)
	env.Instrument(o)
	c := cfs.DefaultConfig()
	if cfg.MaxIterations > 0 {
		c.MaxIterations = cfg.MaxIterations
	}
	c.Workers = cfg.Workers
	if cfg.Engine != "" {
		c.Engine = cfg.Engine
	}
	c.Shards = cfg.Shards
	c.Obs = o
	probes := o.Counter("trace.probes.traceroute")
	conv := tr.begin(id, root.id, "converge")
	var p *cfs.Pipeline
	s.cfsNew = tr.do(id, conv.id, "cfs.new", func() {
		p, err = cfs.New(c, env.DB, env.IPASN, env.Svc, env.Det, env.Prober)
	})
	if err != nil {
		return s, err
	}
	var obsv cfs.Observations
	s.campaign = tr.do(id, conv.id, "platform.campaign", func() { obsv.Paths = env.InitialCorpus() })
	s.probesCampaign = probes.Value()
	s.sessions = tr.do(id, conv.id, "platform.sessions", func() { obsv.Sessions = env.Sessions() })
	s.run = tr.do(id, conv.id, "cfs.run", func() { s.res = p.RunObservations(obsv) })
	conv.end()
	root.end()
	s.probesFollowup = probes.Value() - s.probesCampaign
	snap := o.Metrics.Snapshot()
	s.phases = make(map[string]time.Duration)
	for _, ph := range phaseNames {
		s.phases[ph] = snap.Histograms["cfs.phase."+ph].Sum
	}
	s.counters = snap.Counters
	return s, nil
}

// sameResult reports whether the decomposed run computed exactly what
// the facade did.
func sameResult(a, b *cfs.Result) bool {
	return reflect.DeepEqual(a.Interfaces, b.Interfaces) && reflect.DeepEqual(a.Links, b.Links) &&
		len(a.History) == len(b.History)
}

// reconcileStages runs over reconcileWorlds worlds, for
// reconcileRounds rounds and longer until reconcileWork has passed.
// A single medium convergence varies by ±15% between executions, so a
// steady sum needs several worlds and several rounds.
const (
	reconcileWorlds = 8
	reconcileRounds = 3
	reconcileWork   = 4 * time.Second
)

// reconcileStages times the stage pass against the facade's
// MapInterconnections on each world, both on an instrumented
// environment so that they do the same work, and fails the run unless
// the stages, summed over the worlds, account for the facade's total
// within ±10%. Each side counts a world's fastest execution, so that a
// pause of the host in one execution does not decide the check. Only
// the first round is traced; it returns that round's stage passes.
func reconcileStages(r *report, tr *tracer, cfgs []facilitymap.Config) ([]stageRun, error) {
	first := make([]stageRun, len(cfgs))
	stages := make([]time.Duration, len(cfgs))
	facade := make([]time.Duration, len(cfgs))
	start := time.Now()
	for round := 0; round < reconcileRounds || time.Since(start) < reconcileWork; round++ {
		for k, cfg := range cfgs {
			id := fmt.Sprintf("world%d", k)
			runtime.GC() // no execution pays for the previous one's garbage
			s, err := stagePass(tr, id+".stages", cfg)
			if err != nil {
				return nil, err
			}
			runtime.GC()
			f, err := facadePass(tr, id+".reference", cfg, false, obs.New(0))
			if err != nil {
				return nil, err
			}
			if !sameResult(f.m.Result(), s.res) {
				r.fail("world %d: the decomposed stage pass computed a different mapping than the facade", cfg.Seed)
			}
			s.res = nil
			if round == 0 {
				first[k], stages[k], facade[k] = s, s.stages(), f.mapIx
			} else {
				stages[k], facade[k] = min(stages[k], s.stages()), min(facade[k], f.mapIx)
			}
		}
		tr = nil
	}
	var stageSum, mapSum time.Duration
	for k := range cfgs {
		stageSum += stages[k]
		mapSum += facade[k]
	}
	r.printf("record: reconcile stages %v vs facade MapInterconnections %v (%.3f): each world's fastest execution per side, %d worlds, %v",
		stageSum.Round(time.Millisecond), mapSum.Round(time.Millisecond), ratio(float64(stageSum), float64(mapSum)),
		len(cfgs), time.Since(start).Round(time.Second))
	if err := reconcile("stage spans vs facade MapInterconnections", mapSum, stageSum); err != nil {
		r.fail("%v", err)
	}
	return first, nil
}

// stageLayers reconciles the stage pass with the facade on the first
// reconcileWorlds worlds of the run's seed, which include the run's own
// worlds, then reports the per-layer metrics of the stage passes and of
// fa, the run's traced facade passes.
func stageLayers(r *report, tr *tracer, o options, fa []facadeRun) error {
	var cfgs []facilitymap.Config
	for _, w := range worldSeeds(o.seed, reconcileWorlds) {
		cfgs = append(cfgs, facilitymap.Config{Profile: o.profile, Seed: w})
	}
	st, err := reconcileStages(r, tr, cfgs)
	if err != nil {
		return err
	}
	var newenv, campaign, sessions, cfsNew, runD, self dist
	var pcamp, pfoll, iters, recomp, narrow, follow dist
	phase := map[string]dist{}
	for _, s := range st {
		campaign = append(campaign, ms(s.campaign))
		sessions = append(sessions, ms(s.sessions))
		cfsNew = append(cfsNew, ms(s.cfsNew))
		runD = append(runD, ms(s.run))
		self = append(self, ms(s.run-s.phaseSum()))
		for _, ph := range phaseNames {
			phase[ph] = append(phase[ph], ms(s.phases[ph]))
		}
		pcamp = append(pcamp, float64(s.probesCampaign))
		pfoll = append(pfoll, float64(s.probesFollowup))
		iters = append(iters, float64(s.counters["cfs.iterations"]))
		recomp = append(recomp, float64(s.counters["cfs.recomputed"]))
		narrow = append(narrow, float64(s.counters["cfs.narrowings"]))
		follow = append(follow, float64(s.counters["cfs.followups"]))
	}
	var allocMB, allocs, cpuWall dist
	for _, f := range fa {
		newenv = append(newenv, ms(f.newenv))
		allocMB = append(allocMB, float64(f.allocB)/(1<<20))
		allocs = append(allocs, float64(f.allocs))
		cpuWall = append(cpuWall, ratio(float64(f.cpu), float64(f.converge())))
	}
	r.layer("experiments.newenv_ms", newenv.median(), "ms")
	r.layer("platform.campaign_ms", campaign.median(), "ms")
	r.layer("platform.sessions_ms", sessions.median(), "ms")
	r.layer("trace.probes_campaign", pcamp.median(), "count")
	r.layer("trace.probes_followup", pfoll.median(), "count")
	r.layer("cfs.new_ms", cfsNew.median(), "ms")
	r.layer("cfs.run_ms", runD.median(), "ms")
	for _, ph := range phaseNames {
		r.layer("cfs.phase."+ph+"_ms", phase[ph].median(), "ms")
	}
	r.layer("cfs.self_ms", self.median(), "ms")
	r.layer("cfs.iterations", iters.median(), "count")
	r.layer("cfs.recomputed", recomp.median(), "count")
	r.layer("cfs.narrowings", narrow.median(), "count")
	r.layer("cfs.useful_ratio", ratio(narrow.sum(), recomp.sum()), "ratio")
	r.layer("cfs.followups", follow.median(), "count")
	r.layer("converge.alloc_mb", allocMB.median(), "MB")
	r.layer("converge.allocs", allocs.median(), "count")
	r.layer("converge.cpu_per_wall", cpuWall.median(), "ratio")
	return nil
}

// processCPU is this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the system and resets this
// process's VmHWM, so the next peakRSSMB("self") is the peak of what
// runs in between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM (peak resident set) from /proc/<pid>/status.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// sourceDigest hashes every Go source and go.mod under root, skipping
// build output, so runs of one tree can be matched without git.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
