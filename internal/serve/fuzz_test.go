package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"facilitymap"
	"facilitymap/internal/obs"
)

// FuzzParseASPair: arbitrary query strings never panic the hand-rolled
// scan, an accepted pair is always positive, and wherever the stdlib
// parser is unambiguous — no escapes, no separators it rejects, no
// repeated key — the scan answers exactly what url.ParseQuery does.
func FuzzParseASPair(f *testing.F) {
	for _, q := range []string{
		"a=3356&b=174", "b=174&a=3356", "a=0&b=1", "a=-3&b=4", "a=x&b=2",
		"a=1", "", "&&a=7&&b=9&", "a=1=2&b=3", "ab=1&b=2&a=5",
		"a=%31&b=2", "a=+1&b=2", "a=1;b=2", "a=1&a=2&b=3", "a=99999999999999999999&b=1",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{URL: &url.URL{Path: "/v1/interconnections", RawQuery: raw}}
		a, b, ok := parseASPair(r)
		if ok && (a <= 0 || b <= 0) {
			t.Fatalf("%q: accepted non-positive pair (%d, %d)", raw, a, b)
		}
		if strings.ContainsAny(raw, "%+;") {
			return
		}
		q, err := url.ParseQuery(raw)
		if err != nil || len(q["a"]) > 1 || len(q["b"]) > 1 {
			return
		}
		wa, errA := strconv.Atoi(q.Get("a"))
		wb, errB := strconv.Atoi(q.Get("b"))
		wantOK := errA == nil && errB == nil && wa > 0 && wb > 0
		if ok != wantOK || (ok && (a != wa || b != wb)) {
			t.Fatalf("%q: scan gave (%d, %d, %v), url.ParseQuery (%d, %d, %v)", raw, a, b, ok, wa, wb, wantOK)
		}
	})
}

// FuzzBatchBody drives arbitrary POST /v1/interfaces:batch bodies
// through the full handler. A JSON array of at most maxBatchIPs strings
// answers 200 with one result per address, in order, each either the
// snapshot's record or an inline error; anything else answers 400.
// Every response body is valid JSON.
func FuzzBatchBody(f *testing.F) {
	sys, err := facilitymap.NewSystem(facilitymap.Config{Profile: "small", Seed: 1, MaxIterations: 30})
	if err != nil {
		f.Fatal(err)
	}
	m := sys.MapInterconnections()
	h := New(sys, Options{Obs: obs.New(0)}).Handler()

	ips, _ := sampleQueries(m, 2, 1)
	known, _ := json.Marshal(ips)
	for _, body := range []string{
		string(known), `[]`, `null`, `["203.0.113.254","not-an-ip"]`, `["1.2.3.4"]`,
		`["\"quoted\""]`, `[1,2]`, `{"not":"an array"}`, `[`, "",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/interfaces:batch", bytes.NewReader(body)))
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d with invalid JSON body %q", rec.Code, rec.Body)
		}
		var req []string
		if len(body) > maxBatchBody || json.Unmarshal(body, &req) != nil || len(req) > maxBatchIPs {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("rejectable body answered %d, want 400: %s", rec.Code, rec.Body)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("valid batch answered %d: %s", rec.Code, rec.Body)
		}
		var got batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Epoch != m.Epoch() || len(got.Results) != len(req) {
			t.Fatalf("envelope epoch %d with %d results, want %d and %d", got.Epoch, len(got.Results), m.Epoch(), len(req))
		}
		for i, r := range got.Results {
			if r.IP != req[i] {
				t.Fatalf("result %d names %q, want %q", i, r.IP, req[i])
			}
			want, ok := m.Lookup(req[i])
			switch {
			case ok && (r.Interface == nil || r.Error != "" || !reflect.DeepEqual(*r.Interface, want)):
				t.Fatalf("result %d for %q: got %+v, want %+v", i, req[i], r, want)
			case !ok && (r.Interface != nil || r.Error == ""):
				t.Fatalf("result %d for %q: got %+v, want an inline error", i, req[i], r)
			}
		}
	})
}
