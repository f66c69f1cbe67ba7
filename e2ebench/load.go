package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"strconv"
	"time"

	"facilitymap"
)

// hdrSpan carries the client's request span ID to an in-process
// handler, so the handler span joins the request's trace.
const hdrSpan = "X-Bench-Span"

// sample is one completed request as the client saw it.
type sample struct {
	start, end int64 // ns since the load's t0: send, last byte read
	key        int32
	epoch      int32 // X-CFS-Epoch, -1 when missing
	bodyEpoch  int32 // the body's "epoch" field, -1 when missing
	status     int16
	route      route
	terr       bool // transport error
	hash       uint64
}

func (s sample) ms() float64 { return float64(s.end-s.start) / 1e6 }

// client is one keep-alive connection running a closed loop: it sends
// the next request only after reading the previous reply in full.
type client struct {
	base string
	c    *http.Client
	ks   *keySpace
	tr   *tracer
	name string // request span name
	t0   time.Time
	buf  bytes.Buffer
}

func newClient(base string, ks *keySpace, t0 time.Time) *client {
	return &client{
		base: base,
		c: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}},
		ks:   ks,
		name: "request",
		t0:   t0,
	}
}

func (c *client) close() { c.c.CloseIdleConnections() }

func (c *client) newRequest(q req) *http.Request {
	if q.route == rBatch {
		r, _ := http.NewRequest(http.MethodPost, c.base+"/v1/interfaces:batch", bytes.NewReader(c.ks.batches[q.key]))
		r.Header.Set("Content-Type", "application/json")
		return r
	}
	r, _ := http.NewRequest(http.MethodGet, c.base+c.ks.paths[q.route][q.key], nil)
	return r
}

// do sends one request and times it from send to last byte.
func (c *client) do(q req) sample {
	r := c.newRequest(q)
	sp := c.tr.root(c.name)
	if c.tr != nil {
		r.Header.Set(hdrSpan, strconv.FormatInt(sp.id, 10))
	}
	s := sample{route: q.route, key: q.key, epoch: -1, bodyEpoch: -1}
	resp, err := c.c.Do(r)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		s.status = int16(resp.StatusCode)
		if e, perr := strconv.Atoi(resp.Header.Get("X-Cfs-Epoch")); perr == nil {
			s.epoch = int32(e)
		}
	}
	d := sp.end()
	s.start = int64(sp.start.Sub(c.t0))
	s.end = s.start + int64(d)
	if err != nil {
		s.terr = true
		return s
	}
	s.hash = bodyHash(c.buf.Bytes())
	s.bodyEpoch = bodyEpoch(c.buf.Bytes())
	return s
}

// loop runs the closed loop until the deadline.
func (c *client) loop(ks *keyStream, until time.Time, out []sample) []sample {
	for time.Now().Before(until) {
		out = append(out, c.do(ks.next()))
	}
	return out
}

// bodySeed keys the body hashes; expected and received bodies are
// hashed in the same process, so a per-process seed suffices.
var bodySeed = maphash.MakeSeed()

func bodyHash(b []byte) uint64 { return maphash.Bytes(bodySeed, b) }

// bodyEpoch parses the leading {"epoch":N of a response body.
func bodyEpoch(b []byte) int32 {
	const p = `{"epoch":`
	if !bytes.HasPrefix(b, []byte(p)) {
		return -1
	}
	n, i := int32(0), len(p)
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		n = n*10 + int32(b[i]-'0')
	}
	if i == len(p) {
		return -1
	}
	return n
}

// verifier checks response bodies against the in-process snapshot of
// the epoch each response claims, rendering the expected bytes the way
// the API contract frames them.
type verifier struct {
	ks       *keySpace
	memo     map[expKey]expVal
	checked  int
	failed   int
	problems []string
}

type expKey struct {
	epoch int32
	route route
	key   int32
}

type expVal struct {
	status int16
	hash   uint64
}

func newVerifier(ks *keySpace) *verifier {
	return &verifier{ks: ks, memo: make(map[expKey]expVal)}
}

func (v *verifier) problem(format string, args ...any) {
	v.failed++
	if len(v.problems) < 5 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// check verifies one sample against m, the snapshot at s.epoch (nil
// when the sample failed in transport or carries no epoch).
func (v *verifier) check(s sample, m *facilitymap.Mapping) {
	v.checked++
	switch {
	case s.terr:
		v.problem("%s key %d: transport error", routeNames[s.route], s.key)
		return
	case s.status >= 500:
		v.problem("%s key %d: status %d", routeNames[s.route], s.key, s.status)
		return
	case s.epoch != s.bodyEpoch:
		v.problem("%s key %d: header epoch %d, body epoch %d", routeNames[s.route], s.key, s.epoch, s.bodyEpoch)
		return
	case m == nil:
		v.problem("%s key %d: epoch %d has no reference snapshot", routeNames[s.route], s.key, s.epoch)
		return
	}
	k := expKey{s.epoch, s.route, s.key}
	want, ok := v.memo[k]
	if !ok {
		status, body := expected(m, v.ks, s.route, s.key)
		want = expVal{int16(status), bodyHash(body)}
		v.memo[k] = want
	}
	if s.status != want.status || s.hash != want.hash {
		v.problem("%s key %d epoch %d: status %d body %016x, want %d %016x",
			routeNames[s.route], s.key, s.epoch, s.status, s.hash, want.status, want.hash)
	}
}

// The response shapes of the query API, for rendering expected bodies.
type ixnBody struct {
	Epoch            int                           `json:"epoch"`
	A                int                           `json:"a"`
	B                int                           `json:"b"`
	Interconnections []facilitymap.Interconnection `json:"interconnections"`
}

type snapshotBody struct {
	facilitymap.SnapshotSummary
	ASPairs int `json:"as_pairs"`
}

type errorBody struct {
	Epoch int    `json:"epoch"`
	Error string `json:"error"`
}

// expected renders the response the API must give for (route, key) at
// snapshot m: pre-rendered records framed with the snapshot's epoch.
func expected(m *facilitymap.Mapping, ks *keySpace, rt route, key int32) (int, []byte) {
	e := m.Epoch()
	var b []byte
	switch rt {
	case rInterface:
		ip := ks.addrs[key]
		rec, ok := m.InterfaceJSON(ip)
		if !ok {
			b, _ = json.Marshal(errorBody{e, "no inference recorded for " + ip})
			return http.StatusNotFound, b
		}
		b = fmt.Appendf(b, `{"epoch":%d,"interface":%s}`, e, rec)
	case rIxn:
		p := ks.pairs[key]
		b, _ = json.Marshal(ixnBody{e, p[0], p[1], m.Interconnections(p[0], p[1])})
	case rSnapshot:
		b, _ = json.Marshal(snapshotBody{m.Summarize(), m.ASPairs()})
	case rBatch:
		b = fmt.Appendf(b, `{"epoch":%d,"results":[`, e)
		for i, idx := range ks.batchIPs[key] {
			if i > 0 {
				b = append(b, ',')
			}
			ip := ks.addrs[idx]
			if rec, ok := m.InterfaceJSON(ip); ok {
				b = fmt.Appendf(b, `{"ip":%q,"interface":%s}`, ip, rec)
			} else {
				b = fmt.Appendf(b, `{"ip":%q,"error":"no inference recorded"}`, ip)
			}
		}
		b = append(b, "]}"...)
	}
	return http.StatusOK, b
}

// latencies splits samples into single-record GET and batch latencies
// (ms), skipping those that started before from.
func latencies(ss []sample, from int64) (single, batch dist) {
	for _, s := range ss {
		if s.start < from || s.terr {
			continue
		}
		if s.route == rBatch {
			batch = append(batch, s.ms())
		} else {
			single = append(single, s.ms())
		}
	}
	return single, batch
}

// contiguous checks that acknowledged epochs run first, first+1, ...
func contiguous(acks []int, first int) error {
	for i, a := range acks {
		if a != first+i {
			return fmt.Errorf("acknowledged epoch %d at batch %d, want %d", a, i, first+i)
		}
	}
	return nil
}
