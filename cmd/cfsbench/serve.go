package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"facilitymap"
	"facilitymap/internal/obs"
	"facilitymap/internal/serve"
)

// measureServe benchmarks the daemon's query path (-serve): one
// converged system behind one server built with the options cfsd
// ships, and one fixed request mix — snapshot digests, interface
// lookups, AS-pair interconnection queries — every query rendered from
// the snapshot's materialized tables. The pass reports nanoseconds and
// allocations per query (runtime.MemStats deltas around the timed
// loop; -max-hot-allocs gates the allocations). Two bulk shapes ride
// the same server: one POST /v1/interfaces:batch of N addresses against
// the per-request loop of the same N lookups
// (serve_batch_amortization_x, gated by -min-batch-amortization), and
// the GET /v1/interfaces/stream NDJSON dump timed per emitted record.
func measureServe(rep *report, profile string, seed int64, queries, runs int) error {
	sys, err := facilitymap.NewSystem(facilitymap.Config{Profile: profile, Seed: seed})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	m := sys.MapInterconnections()
	// Swap-time work happens here, as the daemon's writer loop would,
	// so the passes measure serving — never table construction.
	m.Materialize(0)
	reqs, ips := buildServeRequests(m, queries)
	if len(reqs) == 0 {
		return fmt.Errorf("serve: no query targets in the snapshot")
	}

	// Read-only traffic: the server needs no writer loop.
	h := serve.New(sys, serve.Options{Obs: obs.New(0)}).Handler()
	ns, allocs, err := timeServe(h, reqs, runs)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	rep.ServeQueries = len(reqs)
	rep.ServeNsPerQuery = ns
	rep.ServeAllocsPerQuery = allocs

	// Batch amortization: the same N addresses as one POST body versus
	// N individual lookups, each side timed over as many addresses.
	loop := make([]*http.Request, len(ips))
	for i, ip := range ips {
		loop[i] = httptest.NewRequest("GET", "/v1/interface/"+ip, nil)
	}
	loopNs, _, err := timeServe(h, loop, runs*batchIters)
	if err != nil {
		return fmt.Errorf("serve loop: %w", err)
	}
	batchNs, err := timeBatch(h, ips, runs)
	if err != nil {
		return fmt.Errorf("serve batch: %w", err)
	}
	rep.ServeBatchSize = len(ips)
	rep.ServeBatchNsPerQuery = batchNs
	if batchNs > 0 {
		rep.ServeBatchAmortizationX = float64(loopNs) / float64(batchNs)
	}

	streamNs, nIfs, err := timeStream(h, runs)
	if err != nil {
		return fmt.Errorf("serve stream: %w", err)
	}
	rep.ServeStreamInterfaces = nIfs
	rep.ServeStreamNsPerIf = streamNs
	return nil
}

// buildServeRequests assembles the fixed mix: one snapshot digest and
// roughly equal parts interface lookups and AS-pair queries, cycling
// through targets sampled from the mapping. Requests are pre-built and
// reused so the timed loops measure the server, not URL parsing. The
// sampled addresses are returned for the batch scenario.
func buildServeRequests(m *facilitymap.Mapping, n int) ([]*http.Request, []string) {
	infos := m.Interfaces()
	var ips []string
	step := len(infos)/64 + 1
	for i := 0; i < len(infos) && len(ips) < 64; i += step {
		ips = append(ips, infos[i].IP)
	}
	res := m.Result()
	var pairs [][2]int
	seen := map[[2]int]bool{}
	for _, l := range res.Links {
		far := l.FarAS
		if l.Public {
			far = 0
			if ir := res.Interfaces[l.FarPort]; ir != nil {
				far = ir.Owner
			}
		}
		if l.NearAS == 0 || far == 0 || far == l.NearAS {
			continue
		}
		a, b := int(l.NearAS), int(far)
		if a > b {
			a, b = b, a
		}
		p := [2]int{a, b}
		if !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
			if len(pairs) >= 64 {
				break
			}
		}
	}
	if len(ips) == 0 || len(pairs) == 0 {
		return nil, nil
	}
	if n < 4 {
		n = 4
	}
	out := make([]*http.Request, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			out = append(out, httptest.NewRequest("GET", "/v1/snapshot", nil))
		case 1, 3:
			out = append(out, httptest.NewRequest("GET", "/v1/interface/"+ips[i%len(ips)], nil))
		default:
			p := pairs[i%len(pairs)]
			out = append(out, httptest.NewRequest("GET",
				fmt.Sprintf("/v1/interconnections?a=%d&b=%d", p[0], p[1]), nil))
		}
	}
	return out, ips
}

// sink is a reusable alloc-free http.ResponseWriter: the recorder-per-
// request pattern would put several allocations of harness overhead
// inside every timed (and alloc-counted) query.
type sink struct {
	hdr  http.Header
	code int
	n    int64
}

func newSink() *sink                        { return &sink{hdr: make(http.Header, 4)} }
func (s *sink) Header() http.Header         { return s.hdr }
func (s *sink) WriteHeader(code int)        { s.code = code }
func (s *sink) Write(b []byte) (int, error) { s.n += int64(len(b)); return len(b), nil }

// serveReps is how many times each -serve window is timed. A window
// is a few milliseconds of work at most, so one preemption or GC cycle
// can double it; the fastest repetition is reported, since noise only
// ever adds time.
const serveReps = 7

// fastest runs pass serveReps times and returns the shortest duration.
func fastest(pass func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < serveReps; i++ {
		t0 := time.Now()
		pass()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// timeServe plays the request mix through the handler: one untimed
// warmup pass (verifying statuses and growing the reused header map, so
// the timed passes measure steady-state serving), then the fastest of
// serveReps timed windows, with the heap-allocation delta of all of
// them attributed per query.
func timeServe(h http.Handler, reqs []*http.Request, runs int) (nsPerQuery int64, allocsPerQuery float64, err error) {
	for _, r := range reqs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("%s %s: status %d: %s",
				r.Method, r.URL, rec.Code, rec.Body.String())
		}
	}
	w := newSink()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	best := fastest(func() {
		for i := 0; i < runs; i++ {
			for _, r := range reqs {
				h.ServeHTTP(w, r)
			}
		}
	})
	runtime.ReadMemStats(&after)
	n := int64(runs * len(reqs))
	return best.Nanoseconds() / n, float64(after.Mallocs-before.Mallocs) / float64(serveReps*n), nil
}

// batchIters spreads the one-request batch/stream scenarios over enough
// iterations that time.Now granularity stops mattering.
const batchIters = 16

// timeBatch times POST /v1/interfaces:batch with the sampled addresses,
// reporting nanoseconds per address in the batch. The body reader is
// rebuilt per iteration (it is consumed), so the measurement includes
// the decode the server actually pays per batch.
func timeBatch(h http.Handler, ips []string, runs int) (int64, error) {
	body, err := json.Marshal(ips)
	if err != nil {
		return 0, err
	}
	// One reusable request with a rewindable body: rebuilding the
	// request per iteration would charge harness setup, not the server,
	// against the batch.
	rd := bytes.NewReader(body)
	r := httptest.NewRequest("POST", "/v1/interfaces:batch", io.NopCloser(rd))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	w := newSink()
	iters := runs * batchIters
	best := fastest(func() {
		for i := 0; i < iters; i++ {
			rd.Seek(0, io.SeekStart)
			h.ServeHTTP(w, r)
		}
	})
	return best.Nanoseconds() / int64(iters*len(ips)), nil
}

// timeStream times the GET /v1/interfaces/stream NDJSON dump, reporting
// nanoseconds per emitted record and the record count.
func timeStream(h http.Handler, runs int) (nsPerIf int64, interfaces int, err error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/interfaces/stream", nil))
	if rec.Code != http.StatusOK {
		return 0, 0, fmt.Errorf("stream status %d: %s", rec.Code, rec.Body.String())
	}
	interfaces = bytes.Count(rec.Body.Bytes(), []byte("\n"))
	if interfaces == 0 {
		return 0, 0, fmt.Errorf("stream emitted no records")
	}
	w := newSink()
	r := httptest.NewRequest("GET", "/v1/interfaces/stream", nil)
	iters := runs * batchIters
	best := fastest(func() {
		for i := 0; i < iters; i++ {
			h.ServeHTTP(w, r)
		}
	})
	return best.Nanoseconds() / int64(iters*interfaces), interfaces, nil
}
