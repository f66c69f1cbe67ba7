package main

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"facilitymap"
	"facilitymap/internal/delta"
	"facilitymap/internal/obs"
)

const (
	churnWorlds = 8  // cfsd boots per churn run
	churnRate   = 10 // delta batches per second, well under writer capacity
)

// runChurn is writes beside reads: one connection POSTs one-record
// delta batches on a fixed open-loop schedule while one closed-loop
// connection runs the single-record read mix. A batch is visible when
// the first read response carries an epoch at least the one its POST
// acknowledged; its latency runs from the batch's due time.
func runChurn(o options, r *report, tr *tracer) error {
	worlds := worldSeeds(o.seed, churnWorlds)
	segment := time.Duration(o.seconds / float64(len(worlds)) * float64(time.Second))
	interval := time.Second / churnRate
	var dws []daemonWorld
	var reads []sample
	var readWall time.Duration
	var visReg, visRe, late dist
	var untracedReads, tracedReads dist
	var runs []epochRun
	var rtts []time.Duration
	var fa []facadeRun
	var ks0 *keySpace
	var last *daemon
	for k, ws := range worlds {
		cfg := facilitymap.Config{Profile: o.profile, Seed: ws}
		ob := obs.New(0)
		// The in-process reference cfsd is checked against: the same
		// profile and seed cfsd gets, converged the same way.
		ref, err := facadePass(tr, fmt.Sprintf("world%d", k), cfg, tr != nil, ob)
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
		n := int(segment / interval)
		log, _ := delta.Churn(ref.sys.Env.W, n, int64(mix(uint64(o.seed), uint64(k)+200)))
		if len(log) < n {
			return fmt.Errorf("world %d: churn log has %d of %d batches", ws, len(log), n)
		}
		bodies, reg, err := encodeBatches(log)
		if err != nil {
			return err
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
		start := t0.Add(warmup)

		// Reader: closed loop until told to stop. In traced runs the
		// second half of the segment is traced; the first half is the
		// overhead baseline.
		var stop atomic.Bool
		var seen atomic.Int32
		var samples []sample
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(d.base, ks, t0)
			defer c.close()
			stream := ks.stream(int64(mix(uint64(o.seed), uint64(k)+100)), 0, false)
			mid := start.Add(segment / 2)
			for !stop.Load() {
				if tr != nil && c.tr == nil && time.Now().After(mid) {
					c.tr = tr
				}
				s := c.do(stream.next())
				if s.epoch > seen.Load() {
					seen.Store(s.epoch)
				}
				samples = append(samples, s)
			}
		}()

		// Writer: open loop, one batch per interval from start.
		wc := &http.Client{Timeout: 30 * time.Second}
		acks := make([]int, len(bodies))
		dues := make([]time.Time, len(bodies))
		var werr error
		for i, body := range bodies {
			dues[i] = start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(dues[i]))
			late = append(late, ms(time.Since(dues[i])))
			sp := tr.root("post.deltas")
			acks[i], werr = postBatch(wc, d.base, body)
			rtts = append(rtts, sp.end())
			if werr != nil {
				break
			}
		}
		wc.CloseIdleConnections()
		lastAck := acks[len(acks)-1]
		for deadline := time.Now().Add(5 * time.Second); werr == nil && int(seen.Load()) < lastAck && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		stop.Store(true)
		wg.Wait()
		readWall += time.Since(start)
		if werr != nil {
			d.kill()
			return fmt.Errorf("world %d: %w", ws, werr)
		}
		r.attempted += len(acks)
		if err := contiguous(acks, 1); err != nil {
			r.failed++
			r.fail("world %d: %v", ws, err)
		}
		streamEpoch, streamDigest, err := d.stream()
		if err != nil {
			d.kill()
			return err
		}
		dw.requests = len(samples) + len(bodies)
		if err := finish(r, d, &dw, cpu0, lastAck); err != nil {
			d.kill()
			return err
		}
		dws = append(dws, dw)

		// Visibility, per batch class.
		for i := range bodies {
			j := sort.Search(len(samples), func(j int) bool { return samples[j].epoch >= int32(acks[i]) })
			if j == len(samples) {
				r.failed++
				r.fail("world %d: epoch %d never seen by the reader", ws, acks[i])
				continue
			}
			vis := ms(t0.Add(time.Duration(samples[j].end)).Sub(dues[i]))
			if reg[i] {
				visReg = append(visReg, vis)
			} else {
				visRe = append(visRe, vis)
			}
		}
		for _, s := range samples {
			if s.start < int64(warmup) || s.terr {
				continue
			}
			reads = append(reads, s)
			if tr != nil {
				if s.start < int64(warmup+segment/2) {
					untracedReads = append(untracedReads, s.ms())
				} else {
					tracedReads = append(tracedReads, s.ms())
				}
			}
		}

		// Replay the same batches in process; check every read against
		// the snapshot of the epoch it claims, and the final stream.
		v := newVerifier(ks)
		byEpoch := make(map[int32][]sample)
		for _, s := range samples {
			byEpoch[s.epoch] = append(byEpoch[s.epoch], s)
		}
		for _, s := range byEpoch[0] {
			v.check(s, ref.m)
		}
		for _, s := range byEpoch[-1] {
			v.check(s, nil)
		}
		var final *facilitymap.Mapping
		wr, err := replay(tr, ref.sys, ob, bodies, reg, func(i int, m *facilitymap.Mapping) {
			for _, s := range byEpoch[int32(i+1)] {
				v.check(s, m)
			}
			final = m
		})
		if err != nil {
			return err
		}
		runs = append(runs, wr...)
		r.attempted += len(samples)
		reportVerifier(r, v, fmt.Sprintf("world %d reads", ws))
		r.attempted++
		if want := mappingDigest(final); streamEpoch != lastAck || streamDigest != want {
			r.failed++
			r.fail("world %d: stream epoch %d digest %s, in-process replay epoch %d digest %s",
				ws, streamEpoch, streamDigest, lastAck, want)
		}
		r.printf("record: world seed=%d final epoch=%d digest=%s", ws, lastAck, streamDigest)
	}
	daemonRecord(r, o, dws, last)
	r.printf("record: writer lateness vs schedule p50=%.3fms p99=%.3fms max=%.3fms n=%d (%d/s open loop)",
		late.median(), late.q(0.99), late.q(1), len(late), churnRate)
	if tr == nil {
		var rd dist
		for _, s := range reads {
			rd = append(rd, s.ms())
		}
		rps := float64(len(rd)) / readWall.Seconds()
		r.endToEnd("churn_query_rps", rps, "1/s", len(rd))
		r.endToEnd("churn_query_p50_us", rd.median()*1e3, "us", len(rd))
		r.endToEnd("churn_query_p90_us", rd.q(0.9)*1e3, "us", len(rd))
		r.endToEnd("churn_query_p99_us", rd.q(0.99)*1e3, "us", len(rd))
		r.endToEnd("delta_visible_registry_p50_ms", visReg.median(), "ms", len(visReg))
		r.endToEnd("delta_visible_registry_p90_ms", visReg.q(0.9), "ms", len(visReg))
		r.endToEnd("delta_visible_reingest_p50_ms", visRe.median(), "ms", len(visRe))
		r.endToEnd("delta_visible_reingest_p90_ms", visRe.q(0.9), "ms", len(visRe))
		r.endToEnd("failed_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.attempted)
		r.slot(mRate, rps, "1/s")
		r.slot(mOpP50, rd.median(), "ms")
		// p90, not p99: a read's p99 under churn is set by the few reads
		// that overlap an apply, and it moved by a quarter between runs.
		r.slot(mOpTail, rd.q(0.9), "ms")
		r.slot(mAuxP50, visReg.median(), "ms")
		// The slow class's median, not its p90: with ~50/50 classes it is
		// the pooled visibility's p75, and the reingest p90 moved by
		// 0.2–0.4 between runs on a host with steal.
		r.slot(mAuxTail, visRe.median(), "ms")
		r.printf("record: %s; %s; %s", pct("churn_query", rd, 0.5, 0.9, 0.99), pct("visible_registry", visReg, 0.5, 0.9), pct("visible_reingest", visRe, 0.5, 0.9))
		return nil
	}
	r.printf("record: trace overhead %.3fx (traced read p50 %.4f ms n=%d / untraced %.4f ms n=%d)",
		ratio(tracedReads.median(), untracedReads.median()), tracedReads.median(), len(tracedReads), untracedReads.median(), len(untracedReads))
	if err := stageLayers(r, tr, o, fa); err != nil {
		return err
	}
	var matD dist
	for _, er := range runs {
		matD = append(matD, ms(er.mat))
	}
	r.layer("facilitymap.materialize_ms", matD.median(), "ms")
	deltaLayers(r, runs, rtts)
	return tour(o, r, tr, facilitymap.Config{Profile: o.profile, Seed: worlds[0]},
		tourOpts{ks: ks0, clients: 1, seconds: 1, fromDaemon: true})
}
