package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"facilitymap"
	"facilitymap/internal/delta"
	"facilitymap/internal/obs"
	"facilitymap/internal/serve"
)

// inproc is a serve.Server with shipped options over an in-process
// System, mounted by the benchmark on a loopback listener with a span
// around Handler().ServeHTTP. The program itself stays uninstrumented.
type inproc struct {
	srv    *serve.Server
	obs    *obs.Obs
	hs     *http.Server
	base   string
	stop   context.CancelFunc
	served chan error
}

func mount(tr *tracer, sys *facilitymap.System) (*inproc, error) {
	o := obs.New(0)
	srv := serve.New(sys, serve.Options{Obs: o})
	ctx, cancel := context.WithCancel(context.Background())
	go srv.Run(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		<-srv.Done()
		return nil, err
	}
	h := srv.Handler()
	p := &inproc{srv: srv, obs: o, base: "http://" + ln.Addr().String(), stop: cancel, served: make(chan error, 1)}
	p.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		tr.do(r.Header.Get(hdrSpan), parent, "serve.handler", func() { h.ServeHTTP(w, r) })
	})}
	go func() { p.served <- p.hs.Serve(ln) }()
	return p, nil
}

// close shuts the listener down, then drains the writer loop.
func (p *inproc) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p.hs.Shutdown(ctx)
	<-p.served
	p.stop()
	<-p.srv.Done()
}

// closedLoop runs n clients against base until the deadline, each with
// its own key stream, and returns every sample.
func closedLoop(base string, ks *keySpace, tr *tracer, name string, seed int64, n int, batches bool,
	t0, until time.Time) []sample {
	out := make([][]sample, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(base, ks, t0)
			defer c.close()
			c.tr, c.name = tr, name
			out[i] = c.loop(ks.stream(seed, i, batches), until, nil)
		}(i)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// serveLayers measures the serve layer in process: handler spans and
// transport (request span minus handler span) under a closed loop of
// the workload's read mix, then allocations per ServeHTTP call.
type serveLayers struct {
	handlerUS, transportUS dist
	allocs                 float64
	counters               map[string]int64
	cpuPerReqUS            float64
}

func probeServe(tr *tracer, p *inproc, ks *keySpace, v *verifier, m *facilitymap.Mapping, seed int64,
	clients int, seconds float64, batches bool) serveLayers {
	var out serveLayers
	t0 := time.Now()
	cpu0 := processCPU()
	samples := closedLoop(p.base, ks, tr, "request.inproc", seed, clients, batches, t0,
		t0.Add(time.Duration(seconds*float64(time.Second))))
	out.cpuPerReqUS = ratio(float64(processCPU()-cpu0)/1e3, float64(len(samples)))
	for _, s := range samples {
		v.check(s, m)
	}
	reqs := make(map[int64]span)
	var handlers []span
	for _, s := range tr.all() {
		switch s.Name {
		case "request.inproc":
			reqs[s.ID] = s
		case "serve.handler":
			handlers = append(handlers, s)
		}
	}
	for _, h := range handlers {
		out.handlerUS = append(out.handlerUS, float64(h.dur())/1e3)
		if rq, ok := reqs[h.Parent]; ok {
			out.transportUS = append(out.transportUS, float64(rq.dur()-h.dur())/1e3)
		}
	}
	out.allocs = handlerAllocs(p.srv.Handler(), ks, seed)
	out.counters = p.obs.Metrics.Snapshot().Counters
	return out
}

// handlerAllocs is heap allocations per Handler().ServeHTTP call over
// the single-record mix, called serially with prebuilt requests.
func handlerAllocs(h http.Handler, ks *keySpace, seed int64) float64 {
	st := ks.stream(seed, 99, false)
	reqs := make([]*http.Request, 2048)
	for i := range reqs {
		q := st.next()
		reqs[i], _ = http.NewRequest(http.MethodGet, ks.paths[q.route][q.key], nil)
	}
	w := &discard{h: http.Header{}}
	for _, r := range reqs {
		h.ServeHTTP(w, r)
	}
	const rounds = 4
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		for _, r := range reqs {
			h.ServeHTTP(w, r)
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(rounds*len(reqs))
}

type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(int)             {}

// report prints the serve-layer metrics; fromDaemon is set when the
// workload read cache counters and CPU from cfsd itself.
func (sl serveLayers) report(r *report, fromDaemon bool) {
	r.layer("serve.handler_us_p50", sl.handlerUS.median(), "us")
	r.layer("serve.handler_us_p99", sl.handlerUS.q(0.99), "us")
	r.layer("serve.handler_allocs", sl.allocs, "count")
	r.layer("net.transport_us_p50", sl.transportUS.median(), "us")
	r.printf("record: serve.handler samples n=%d (p99 beyond=%d)", len(sl.handlerUS), len(sl.handlerUS)/100)
	if !fromDaemon {
		cacheLayers(r, sl.counters)
		r.layer("server.cpu_us_per_req", sl.cpuPerReqUS, "us")
		r.printf("record: server.cpu_us_per_req is in-process (client and server share the process)")
	}
}

// cacheLayers reports the epoch-cache and rejection counters.
func cacheLayers(r *report, c map[string]int64) {
	hits, misses := float64(c["serve.cache.hits"]), float64(c["serve.cache.misses"])
	r.layer("serve.cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	r.layer("serve.cache.full_drops", float64(c["serve.cache.full_drops"]), "count")
	r.layer("serve.http.rejected", float64(c["serve.http.rejected"]), "count")
}

// isRegistry classes a delta: facility-list kinds take ApplyDelta's
// surgical path; every other kind reingests the corpus.
func isRegistry(d delta.Delta) bool {
	switch d.Kind {
	case delta.ASFacilityAdd, delta.ASFacilityRemove, delta.IXPFacilityAdd, delta.IXPFacilityRemove:
		return true
	}
	return false
}

// batches encodes each delta as its own one-record JSONL batch.
func encodeBatches(log []delta.Delta) ([][]byte, []bool, error) {
	bodies := make([][]byte, len(log))
	reg := make([]bool, len(log))
	for i, d := range log {
		var b bytes.Buffer
		if err := delta.EncodeJSONL(&b, []delta.Delta{d}); err != nil {
			return nil, nil, err
		}
		bodies[i], reg[i] = b.Bytes(), isRegistry(d)
	}
	return bodies, reg, nil
}

// epochRun is one replayed batch.
type epochRun struct {
	registry             bool
	decode, apply, mat   time.Duration
	redirtied, recompute int64
}

// replay folds each batch into sys in log order the way the daemon's
// writer does — decode, System.Apply, Materialize(0) — and calls each
// with every published snapshot. o must be the Obs sys was
// instrumented with before its first convergence (nil for none).
func replay(tr *tracer, sys *facilitymap.System, o *obs.Obs, bodies [][]byte, reg []bool,
	each func(i int, m *facilitymap.Mapping)) ([]epochRun, error) {
	redirty, recomp := o.Counter("cfs.delta.redirtied"), o.Counter("cfs.recomputed")
	runs := make([]epochRun, len(bodies))
	for i, body := range bodies {
		id := "epoch" + strconv.Itoa(i+1)
		er := epochRun{registry: reg[i]}
		r0, c0 := redirty.Value(), recomp.Value()
		ep := tr.begin(id, 0, "epoch")
		var log []delta.Delta
		var err error
		er.decode = tr.do(id, ep.id, "delta.decode", func() {
			log, err = delta.NewDecoder(bytes.NewReader(body)).Batch(0)
		})
		if err != nil {
			return nil, fmt.Errorf("decode batch %d: %w", i, err)
		}
		var m *facilitymap.Mapping
		er.apply = tr.do(id, ep.id, "facilitymap.apply", func() { m, err = sys.Apply(log) })
		if err != nil {
			return nil, fmt.Errorf("apply batch %d: %w", i, err)
		}
		er.mat = tr.do(id, ep.id, "facilitymap.materialize", func() { m.Materialize(0) })
		ep.end()
		er.redirtied, er.recompute = redirty.Value()-r0, recomp.Value()-c0
		runs[i] = er
		if each != nil {
			each(i, m)
		}
	}
	return runs, nil
}

// deltaLayers reports the write-path layers from a replay; rtts, when
// given, are the POST round trips of the same batches against a
// server, index-aligned with runs.
func deltaLayers(r *report, runs []epochRun, rtts []time.Duration) {
	var decode, regApply, reApply, redirty, recomp, wait dist
	for i, er := range runs {
		decode = append(decode, float64(er.decode)/1e3)
		if er.registry {
			regApply = append(regApply, ms(er.apply))
		} else {
			reApply = append(reApply, ms(er.apply))
		}
		redirty = append(redirty, float64(er.redirtied))
		recomp = append(recomp, float64(er.recompute))
		if i < len(rtts) {
			wait = append(wait, ms(rtts[i]-er.apply-er.mat))
		}
	}
	r.layer("delta.decode_us", decode.median(), "us")
	r.layer("facilitymap.apply_registry_ms", regApply.median(), "ms")
	r.layer("facilitymap.apply_reingest_ms", reApply.median(), "ms")
	r.layer("cfs.delta.redirtied", redirty.mean(), "count")
	r.layer("cfs.recomputed_per_epoch", recomp.mean(), "count")
	r.layer("serve.writer_wait_ms", wait.median(), "ms")
	r.printf("record: replay epochs n=%d (registry %d, reingest %d)", len(runs), len(regApply), len(reApply))
}

// probeBatches takes the shortest prefix of a churn log holding at
// least two batches of each class, so a short probe sees both paths.
func probeBatches(w *facilitymap.System, seed int64) []delta.Delta {
	log, _ := delta.Churn(w.Env.W, 40, seed)
	nReg, nRe := 0, 0
	for i, d := range log {
		if isRegistry(d) {
			nReg++
		} else {
			nRe++
		}
		if nReg >= 2 && nRe >= 2 {
			return log[:i+1]
		}
	}
	return log
}

// postAll POSTs each batch to base in order and returns the round trips
// and acknowledged epochs.
func postAll(base string, bodies [][]byte) ([]time.Duration, []int, error) {
	c := &http.Client{Timeout: 30 * time.Second}
	defer c.CloseIdleConnections()
	rtts := make([]time.Duration, len(bodies))
	acks := make([]int, len(bodies))
	for i, b := range bodies {
		t := time.Now()
		ack, err := postBatch(c, base, b)
		if err != nil {
			return nil, nil, err
		}
		rtts[i], acks[i] = time.Since(t), ack
	}
	return rtts, acks, nil
}

// postBatch POSTs one JSONL batch and returns the acknowledged epoch.
func postBatch(c *http.Client, base string, body []byte) (int, error) {
	resp, err := c.Post(base+"/v1/deltas", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /v1/deltas: %d %s", resp.StatusCode, buf.String())
	}
	e := bodyEpoch(buf.Bytes())
	if e < 0 {
		return 0, fmt.Errorf("POST /v1/deltas: no epoch in %s", buf.String())
	}
	return int(e), nil
}

// tourOpts selects what tour measures for a workload.
type tourOpts struct {
	ks         *keySpace // the workload's keys; nil derives them from the world
	clients    int       // closed-loop clients of the serve probe
	seconds    float64   // serve probe read phase
	batches    bool      // the read mix includes batch POSTs
	fromDaemon bool      // cache counters and CPU were read from cfsd
	writes     bool      // measure the write path in process too
}

// tour measures, in process, the layers a workload's own load does
// not reach through spans, so every traced run reports every per-layer
// metric: the facade's table reads, a fresh system of the run's first
// world behind a mounted serve handler (read mix, then the write
// path), and the same batches replayed directly with spans.
func tour(o options, r *report, tr *tracer, cfg facilitymap.Config, t tourOpts) error {
	// Both systems are instrumented alike, so the POST round trips and
	// the replayed applies they are compared with cost the same.
	served, err := facadePass(nil, "", cfg, false, obs.New(0))
	if err != nil {
		return err
	}
	ks := t.ks
	if ks == nil {
		ks = newKeySpace(served.m, o.seed)
	}
	tableLayers(r, served.m, ks, o.seed)
	p, err := mount(tr, served.sys)
	if err != nil {
		return err
	}
	v := newVerifier(ks)
	sl := probeServe(tr, p, ks, v, served.m, o.seed, t.clients, t.seconds, t.batches)
	r.attempted += v.checked
	reportVerifier(r, v, "in-process probe")
	sl.report(r, t.fromDaemon)
	if !t.writes {
		p.close()
		return nil
	}
	log := probeBatches(served.sys, o.seed)
	bodies, reg, err := encodeBatches(log)
	if err != nil {
		p.close()
		return err
	}
	rtts, acks, err := postAll(p.base, bodies)
	p.close()
	if err != nil {
		return err
	}
	r.attempted += len(acks)
	if err := contiguous(acks, 1); err != nil {
		r.failed++
		r.fail("in-process probe: %v", err)
	}
	ob := obs.New(0)
	rep, err := facadePass(nil, "", cfg, false, ob)
	if err != nil {
		return err
	}
	runs, err := replay(tr, rep.sys, ob, bodies, reg, nil)
	if err != nil {
		return err
	}
	deltaLayers(r, runs, rtts)
	return nil
}

// tableLayers times the facade's per-request table reads in process
// over the workload's keys.
func tableLayers(r *report, m *facilitymap.Mapping, ks *keySpace, seed int64) {
	st := ks.stream(seed, 98, false)
	var ips []string
	var pairs [][2]int
	for len(ips) < 20000 {
		q := st.next()
		switch q.route {
		case rInterface:
			ips = append(ips, ks.addrs[q.key])
		case rIxn:
			pairs = append(pairs, ks.pairs[q.key])
		}
	}
	t := time.Now()
	for _, ip := range ips {
		m.InterfaceJSON(ip)
	}
	r.layer("facilitymap.interface_json_ns", float64(time.Since(t).Nanoseconds())/float64(len(ips)), "ns")
	t = time.Now()
	for _, p := range pairs {
		m.Interconnections(p[0], p[1])
	}
	r.layer("facilitymap.interconnections_us", float64(time.Since(t).Nanoseconds())/1e3/float64(max(len(pairs), 1)), "us")
}

// reportVerifier folds a verifier's failures into the report.
func reportVerifier(r *report, v *verifier, what string) {
	r.failed += v.failed
	if v.failed > 0 {
		r.fail("%s: %d responses failed their checks, e.g. %v", what, v.failed, v.problems)
	}
}
