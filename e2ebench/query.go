package main

import (
	"fmt"
	"time"

	"facilitymap"
)

const (
	queryWorlds = 3                      // cfsd boots per query run
	warmup      = 500 * time.Millisecond // per world, checked but not timed

	// queryClients is one keep-alive client, not nproc. On 2 cores, two
	// clients and cfsd saturate both, so every burst of steal lands on
	// a request: over five seeds, the rate and the p90s spread by
	// 0.16-0.22 of their medians with two clients and by 0.12 with one.
	queryClients = 1
)

// runQuery is the read path as shipped: a closed loop of
// single-record GETs (plus ~5% batch POSTs) from a keep-alive client
// against cfsd over loopback.
func runQuery(o options, r *report, tr *tracer) error {
	worlds := worldSeeds(o.seed, queryWorlds)
	clients := queryClients
	segment := time.Duration(o.seconds / float64(len(worlds)) * float64(time.Second))
	var dws []daemonWorld
	var all, untracedHalf, tracedHalf []sample
	var wall time.Duration
	var fa []facadeRun
	var ks0 *keySpace
	var last *daemon
	for k, ws := range worlds {
		cfg := facilitymap.Config{Profile: o.profile, Seed: ws}
		// The in-process reference cfsd is checked against: the same
		// profile and seed cfsd gets, converged the same way.
		ref, err := facadePass(tr, fmt.Sprintf("world%d", k), cfg, tr != nil, nil)
		if err != nil {
			return err
		}
		if tr != nil {
			fa = append(fa, ref.figures())
		}
		ks := newKeySpace(ref.m, int64(mix(uint64(o.seed), uint64(k))))
		if k == 0 {
			ks0 = ks
		}
		d, err := startDaemon(o.cfsd, o.profile, ws)
		if err != nil {
			return err
		}
		last = d
		dw := daemonWorld{seed: ws, setup: d.setup}
		cpu0, err := d.cpu()
		if err != nil {
			d.kill()
			return err
		}
		t0 := time.Now()
		seed := int64(mix(uint64(o.seed), uint64(k)+100))
		var samples []sample
		if tr == nil {
			samples = closedLoop(d.base, ks, nil, "request", seed, clients, true, t0, t0.Add(warmup+segment))
			wall += segment
			all = append(all, samples...)
		} else {
			// Half the segment untraced, half traced: their ratio is the
			// tracing overhead.
			mid := t0.Add(warmup + segment/2)
			a := closedLoop(d.base, ks, nil, "request", seed, clients, true, t0, mid)
			b := closedLoop(d.base, ks, tr, "request", seed+1, clients, true, mid, mid.Add(segment/2))
			untracedHalf = append(untracedHalf, a...)
			tracedHalf = append(tracedHalf, b...)
			samples = append(a, b...)
		}
		dw.requests = len(samples)
		if tr == nil {
			single, _ := latencies(samples, int64(warmup))
			r.printf("record: world seed=%d query p50 %.4f ms p99 %.4f ms n=%d", ws, single.median(), single.q(0.99), len(single))
		}
		v := newVerifier(ks)
		for _, s := range samples {
			v.check(s, ref.m)
		}
		r.attempted += len(samples)
		reportVerifier(r, v, fmt.Sprintf("world %d", ws))
		if err := finish(r, d, &dw, cpu0, 0); err != nil {
			d.kill()
			return err
		}
		dws = append(dws, dw)
	}
	daemonRecord(r, o, dws, last)
	if tr == nil {
		single, batch := latencies(all, int64(warmup))
		rps := float64(len(single)) / wall.Seconds()
		r.endToEnd("query_rps", rps, "1/s", len(single))
		r.endToEnd("query_p50_us", single.median()*1e3, "us", len(single))
		r.endToEnd("query_p90_us", single.q(0.9)*1e3, "us", len(single))
		r.endToEnd("query_p99_us", single.q(0.99)*1e3, "us", len(single))
		r.endToEnd("batch_p50_us", batch.median()*1e3, "us", len(batch))
		r.endToEnd("batch_p90_us", batch.q(0.9)*1e3, "us", len(batch))
		r.endToEnd("batch_p99_us", batch.q(0.99)*1e3, "us", len(batch))
		r.endToEnd("failed_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.attempted)
		r.slot(mRate, rps, "1/s")
		r.slot(mOpP50, single.median(), "ms")
		// p90, not p99: the p99 is set by the requests that wait out a
		// burst of steal. Over five seeds it spread by 0.5-0.75 of its
		// median, the p90 by 0.12.
		r.slot(mOpTail, single.q(0.9), "ms")
		r.slot(mAuxP50, batch.median(), "ms")
		r.slot(mAuxTail, batch.q(0.9), "ms")
		r.printf("record: %s; %s; clients=%d closed loop",
			pct("single", single, 0.5, 0.9, 0.99), pct("batch", batch, 0.5, 0.9, 0.99), clients)
		return nil
	}
	un, _ := latencies(untracedHalf, int64(warmup))
	tr1, _ := latencies(tracedHalf, 0)
	r.printf("record: trace overhead %.3fx (traced p50 %.4f ms n=%d / untraced p50 %.4f ms n=%d)",
		ratio(tr1.median(), un.median()), tr1.median(), len(tr1), un.median(), len(un))
	if err := stageLayers(r, tr, o, fa); err != nil {
		return err
	}
	var matD dist
	for _, f := range fa {
		matD = append(matD, ms(f.mat))
	}
	r.layer("facilitymap.materialize_ms", matD.median(), "ms")
	// The serve probe runs at the workload's client count with a longer
	// read phase; cache and CPU figures came from cfsd itself.
	return tour(o, r, tr, facilitymap.Config{Profile: o.profile, Seed: worlds[0]},
		tourOpts{ks: ks0, clients: clients, seconds: 3, batches: true, fromDaemon: true, writes: true})
}
