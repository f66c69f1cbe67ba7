package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"facilitymap"
)

// smallMapping converges the small world once for the check tests.
func smallMapping(t *testing.T) *facilitymap.Mapping {
	t.Helper()
	sys, err := facilitymap.NewSystem(facilitymap.Config{Profile: "small", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := sys.MapInterconnections()
	m.Materialize(0)
	return m
}

func TestVerifierCatchesWrongBody(t *testing.T) {
	m := smallMapping(t)
	ks := newKeySpace(m, 1)
	good := func(rt route, key int32) sample {
		status, body := expected(m, ks, rt, key)
		return sample{route: rt, key: key, status: int16(status), epoch: 0, bodyEpoch: bodyEpoch(body), hash: bodyHash(body)}
	}
	absent := int32(ks.nPresent)
	cases := []struct {
		name string
		s    sample
		bad  bool
	}{
		{"present interface", good(rInterface, 0), false},
		{"absent interface answers 404", good(rInterface, absent), false},
		{"interconnections", good(rIxn, 0), false},
		{"snapshot", good(rSnapshot, 0), false},
		{"batch", good(rBatch, 0), false},
		{"wrong body", func() sample { s := good(rInterface, 0); s.hash ^= 1; return s }(), true},
		{"body of another key", func() sample { s := good(rInterface, 0); s.hash = good(rInterface, 1).hash; return s }(), true},
		{"header epoch differs from body", func() sample { s := good(rSnapshot, 0); s.epoch = 1; return s }(), true},
		{"404 for a present address", func() sample { s := good(rInterface, 0); s.status = 404; return s }(), true},
		{"server error", func() sample { s := good(rInterface, 0); s.status = 503; return s }(), true},
		{"transport error", sample{route: rInterface, terr: true}, true},
	}
	for _, c := range cases {
		v := newVerifier(ks)
		v.check(c.s, m)
		if got := v.failed == 1; got != c.bad {
			t.Errorf("%s: failed=%d, want bad=%v (%v)", c.name, v.failed, c.bad, v.problems)
		}
	}
}

func TestContiguousCatchesSkippedEpoch(t *testing.T) {
	if err := contiguous([]int{1, 2, 3}, 1); err != nil {
		t.Fatal(err)
	}
	for _, acks := range [][]int{{1, 2, 4}, {2, 3, 4}, {1, 1, 2}} {
		if contiguous(acks, 1) == nil {
			t.Errorf("acks %v passed the contiguity check", acks)
		}
	}
}

func TestReconcile(t *testing.T) {
	if err := reconcile("x", 100, 95); err != nil {
		t.Error(err)
	}
	if reconcile("x", 100, 111) == nil || reconcile("x", 100, 89) == nil || reconcile("x", 0, 0) == nil {
		t.Error("stages outside ±10% reconciled")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "c", Start: 30, End: 60},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	got := map[string]spanStat{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	if p := got["p"]; p.Self != 40 || p.Total != 100 {
		t.Errorf("parent self %v total %v, want 40 and 100", p.Self, p.Total)
	}
	if c := got["c"]; c.Count != 3 || c.Self != 90 {
		t.Errorf("children %+v, want 3 spans with 90ns self", c)
	}
}

func TestQuantile(t *testing.T) {
	d := dist{4, 1, 3, 2, 5}
	if d.median() != 3 || d.q(0) != 1 || d.q(1) != 5 || d.q(0.25) != 2 {
		t.Errorf("quantiles of %v: %v %v %v %v", d, d.median(), d.q(0), d.q(1), d.q(0.25))
	}
}

// namedMetrics are the per-workload metric names each untraced run
// prints with a unit and a sample count.
var namedMetrics = map[string][]string{
	"converge": {"setup_s", "peak_rss_mb", "failed_ratio", "converge_s"},
	"query": {"setup_s", "peak_rss_mb", "failed_ratio", "query_p50_us", "query_p99_us",
		"query_rps", "batch_p50_us"},
	"churn": {"setup_s", "peak_rss_mb", "failed_ratio", "delta_visible_registry_p50_ms",
		"delta_visible_registry_p90_ms", "delta_visible_reingest_p50_ms",
		"delta_visible_reingest_p90_ms", "churn_query_p50_us", "churn_query_p99_us"},
}

// TestSmoke runs each workload briefly on the small world, traced and
// untraced, and checks that every metric prints with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cfsd and runs every workload")
	}
	dir := t.TempDir()
	cfsd := filepath.Join(dir, "cfsd")
	if out, err := exec.Command("go", "build", "-o", cfsd, "facilitymap/cmd/cfsd").CombinedOutput(); err != nil {
		t.Fatalf("build cfsd: %v\n%s", err, out)
	}
	for _, wl := range []string{"converge", "query", "churn"} {
		for _, traced := range []bool{false, true} {
			o := options{workload: wl, seed: 7, seconds: 2, trace: traced, cfsd: cfsd, out: dir, profile: "small"}
			lines, code := runTo(t, o)
			if code != 0 {
				t.Fatalf("%s trace=%v exited %d:\n%s", wl, traced, code, strings.Join(lines, "\n"))
			}
			var res struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", wl, err)
			}
			want := endToEndNames
			if traced {
				want = perLayerNames
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: result %+v", wl, traced, res)
			}
			for _, n := range want {
				if m, ok := res.Metrics[n]; !ok || m.Unit == "" {
					t.Errorf("%s trace=%v: metric %s missing or without unit", wl, traced, n)
				}
			}
			if traced {
				continue
			}
			for _, n := range namedMetrics[wl] {
				if !printed(lines, n) {
					t.Errorf("%s: %s not printed with unit and sample count", wl, n)
				}
			}
		}
	}
}

// printed reports whether a "metric NAME VALUE UNIT n=N" line exists.
func printed(lines []string, name string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 5 && f[0] == "metric" && f[1] == name && strings.HasPrefix(f[4], "n=") {
			return true
		}
	}
	return false
}

func runTo(t *testing.T, o options) ([]string, int) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	code := run(o, f)
	t.Logf("%s trace=%v: %v", o.workload, o.trace, time.Since(start).Round(time.Millisecond))
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines, code
}
