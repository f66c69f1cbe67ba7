package main

import (
	"strconv"
	"time"

	"facilitymap"
)

// convergeWorlds is how many worlds one converge run cycles through.
// Convergence time differs a lot between worlds, so a run covers many
// of them and averages per-world figures: which worlds a seed picks
// then moves a run's result little.
const convergeWorlds = 16

// runConverge is the batch user's path: fresh NewSystem,
// MapInterconnections and Materialize(0), back to back, round-robin
// over the run's worlds. Every repeat of a world must produce the same
// NDJSON digest. Untraced runs make as many whole rounds as fit in the
// measured time, and at least two.
func runConverge(o options, r *report, tr *tracer) error {
	worlds := worldSeeds(o.seed, convergeWorlds)
	if o.trace {
		// Traced runs converge each world several times over, so they
		// take the worlds the stage passes reconcile on.
		worlds = worlds[:reconcileWorlds]
	}
	cfg := func(k int) facilitymap.Config { return facilitymap.Config{Profile: o.profile, Seed: worlds[k]} }
	digests := make([]string, len(worlds))
	check := func(k int, digest string) {
		r.attempted++
		switch {
		case digests[k] == "":
			digests[k] = digest
		case digests[k] != digest:
			r.failed++
			r.fail("world %d: digest %s differs from the first run's %s", worlds[k], digest, digests[k])
		}
	}
	perK := func() []dist { return make([]dist, len(worlds)) }
	setup, conv, cpu, mat, matCPU, rss := perK(), perK(), perK(), perK(), perK(), perK()
	var all dist // wall time of every convergence
	var convCPU time.Duration
	start := time.Now()
	// Traced runs take one untraced round for the overhead baseline and
	// the digests the traced passes must match.
	for round := 1; ; round++ {
		for k := range worlds {
			// Each convergence starts from a clean heap, as in a fresh
			// process, and its peak RSS is its own.
			if err := resetPeakRSS(); err != nil {
				return err
			}
			fr, err := facadePass(nil, "", cfg(k), false, nil)
			if err != nil {
				return err
			}
			peak, err := peakRSSMB("self")
			if err != nil {
				return err
			}
			setup[k] = append(setup[k], fr.newenv.Seconds())
			conv[k] = append(conv[k], ms(fr.converge()))
			cpu[k] = append(cpu[k], ms(fr.cpu))
			mat[k] = append(mat[k], ms(fr.mat))
			matCPU[k] = append(matCPU[k], ms(fr.matCPU))
			rss[k] = append(rss[k], peak)
			all = append(all, ms(fr.converge()))
			convCPU += fr.cpu
			check(k, fr.digest)
		}
		el := time.Since(start)
		if o.trace || round >= 2 && el+el/time.Duration(round) > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
	}
	for k, w := range worlds {
		r.printf("record: world seed=%d digest=%s", w, digests[k])
	}
	if !o.trace {
		n := len(all)
		setupS, rssMB := perWorld(setup, dist.median), perWorld(rss, dist.median)
		cpuP50, cpuWorst := perWorld(cpu, dist.median), perWorld(cpu, dist.max)
		var pooledCPU, pooledMatCPU dist
		for k := range worlds {
			pooledCPU, pooledMatCPU = append(pooledCPU, cpu[k]...), append(pooledMatCPU, matCPU[k]...)
		}
		rate := float64(n) / convCPU.Seconds()
		r.endToEnd("setup_s", setupS, "s", n)
		r.endToEnd("peak_rss_mb", rssMB, "MB", n)
		r.endToEnd("converge_s", perWorld(conv, dist.median)/1e3, "s", n)
		r.endToEnd("converge_worst_s", perWorld(conv, dist.max)/1e3, "s", n)
		r.endToEnd("converge_cpu_s", cpuP50/1e3, "s", n)
		r.endToEnd("converge_cpu_worst_s", cpuWorst/1e3, "s", n)
		r.endToEnd("converge_cpu_p90_s", pooledCPU.q(0.9)/1e3, "s", n)
		r.endToEnd("converge_per_cpu_s", rate, "1/s", n)
		r.endToEnd("materialize_ms", perWorld(mat, dist.median), "ms", n)
		r.endToEnd("materialize_cpu_ms", pooledMatCPU.median(), "ms", n)
		r.endToEnd("failed_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.attempted)
		r.printf("record: %d worlds x %d repeats; per-world medians and worst repeats, averaged over worlds; pooled %s",
			len(worlds), n/len(worlds), pct("converge_cpu", pooledCPU, 0.5, 0.9))
		// The slots take CPU time, not wall time. On a 2-core virtual
		// machine whose hypervisor stole 10-20% of the time, wall time
		// spread by a fifth to a quarter over ten seeds, CPU time by
		// about half as much.
		r.slot(mSetup, setupS, "s")
		r.slot(mRSS, rssMB, "MB")
		r.slot(mRate, rate, "1/s")
		r.slot(mOpP50, cpuP50, "ms")
		r.slot(mOpTail, cpuWorst, "ms")
		r.slot(mAuxP50, pooledMatCPU.median(), "ms")
		r.slot(mAuxTail, pooledCPU.q(0.9), "ms")
		return nil
	}

	// Traced: per world, the facade pass with spans and allocation
	// counts, then the stage passes.
	var fa []facadeRun
	var traced dist
	for k := range worlds {
		fr, err := facadePass(tr, "world"+strconv.Itoa(k), cfg(k), true, nil)
		if err != nil {
			return err
		}
		check(k, fr.digest)
		fa = append(fa, fr.figures())
		traced = append(traced, ms(fr.converge()))
	}
	r.printf("record: trace overhead %.3fx (traced converge p50 %.1f ms n=%d / untraced %.1f ms n=%d)",
		ratio(traced.median(), all.median()), traced.median(), len(traced), all.median(), len(all))
	if err := stageLayers(r, tr, o, fa); err != nil {
		return err
	}
	var matD dist
	for _, f := range fa {
		matD = append(matD, ms(f.mat))
	}
	r.layer("facilitymap.materialize_ms", matD.median(), "ms")
	return tour(o, r, tr, cfg(0), tourOpts{clients: 1, seconds: 1, batches: true, writes: true})
}
