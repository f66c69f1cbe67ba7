// Command e2ebench is the repository benchmark: it measures the
// facilitymap pipeline and the cfsd daemon the way they ship, checks
// every output it measures, and prints one JSON result line.
//
//	e2ebench -cfsd PATH --workload converge|query|churn --seed N --seconds S --trace 0|1
//
// run.sh builds cfsd and this command from the checkout and runs it;
// README.md gives each workload's rationale and the layer → metric map.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// End-to-end metric names. BENCHMARK.json has every workload report
// every end-to-end metric, so these are workload-neutral slots; each
// workload maps its own metrics onto them (README.md, "End-to-end
// metrics").
const (
	mSetup   = "setup_s"
	mRSS     = "peak_rss_mb"
	mRate    = "ops_per_s"
	mOpP50   = "op_p50_ms"
	mOpTail  = "op_tail_ms"
	mAuxP50  = "aux_p50_ms"
	mAuxTail = "aux_tail_ms"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	cfsd     string
	out      string
	profile  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's human-readable lines, metrics and check
// failures.
type report struct {
	out       *os.File
	e2e       map[string]metric
	layers    map[string]metric
	attempted int
	failed    int
	errs      []string
}

func (r *report) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// fail records a failed output check; the run then exits nonzero.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.errs = append(r.errs, msg)
	r.printf("CHECK FAILED: %s", msg)
}

// endToEnd prints a workload metric under its own name with its unit
// and sample count.
func (r *report) endToEnd(name string, value float64, unit string, samples int) {
	r.printf("metric %-34s %14.4f %-5s n=%d", name, value, unit, samples)
}

// slot reports value in an end-to-end slot of the result line.
func (r *report) slot(slot string, value float64, unit string) {
	r.e2e[slot] = metric{value, unit}
}

// layer records a per-layer metric (printed only in traced runs, where
// it is measured).
func (r *report) layer(name string, value float64, unit string) {
	r.printf("layer  %-34s %14.4f %s", name, value, unit)
	r.layers[name] = metric{value, unit}
}

// perLayerNames lists every per-layer metric a traced run reports.
var perLayerNames = []string{
	"experiments.newenv_ms",
	"platform.campaign_ms", "platform.sessions_ms",
	"trace.probes_campaign", "trace.probes_followup",
	"cfs.new_ms", "cfs.run_ms",
	"cfs.phase.alias_resolve_ms", "cfs.phase.constraint_ms", "cfs.phase.alias_ms", "cfs.phase.followup_ms",
	"cfs.self_ms",
	"cfs.iterations", "cfs.recomputed", "cfs.narrowings", "cfs.useful_ratio", "cfs.followups",
	"converge.alloc_mb", "converge.allocs", "converge.cpu_per_wall",
	"facilitymap.materialize_ms", "facilitymap.interface_json_ns", "facilitymap.interconnections_us",
	"serve.handler_us_p50", "serve.handler_us_p99", "serve.handler_allocs",
	"serve.cache.hit_ratio", "serve.cache.full_drops", "serve.http.rejected",
	"net.transport_us_p50", "server.cpu_us_per_req",
	"delta.decode_us",
	"facilitymap.apply_registry_ms", "facilitymap.apply_reingest_ms",
	"cfs.delta.redirtied", "cfs.recomputed_per_epoch",
	"serve.writer_wait_ms",
}

var endToEndNames = []string{mSetup, mRSS, mRate, mOpP50, mOpTail, mAuxP50, mAuxTail}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "converge, query or churn")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: drives the worlds, the request keys and the churn log")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&o.cfsd, "cfsd", "", "cfsd binary built from the same tree")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span files")
	flag.Parse()
	o.trace = traceFlag == 1
	os.Exit(run(o, os.Stdout))
}

// run executes one workload and prints the report; the last line is
// the JSON result. It returns the process exit code.
func run(o options, out *os.File) int {
	r := &report{out: out, e2e: map[string]metric{}, layers: map[string]metric{}}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.profile == "" {
		o.profile = w.profile
	}
	if w.daemon && o.cfsd == "" {
		fmt.Fprintln(os.Stderr, "e2ebench: -cfsd is required for", o.workload)
		return 2
	}
	r.printf("record: workload=%s profile=%s seed=%d seconds=%g trace=%v", o.workload, o.profile, o.seed, o.seconds, o.trace)
	r.printf("record: nproc=%d gomaxprocs=%d go=%s commit=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), treeID())
	cpu0, speed0 := hostCPU(), hostSpeed()
	if err := w.run(o, r, tr); err != nil {
		r.fail("%s: %v", o.workload, err)
	}
	cpu1, speed1 := hostCPU(), hostSpeed()
	r.printf("record: host steal %.1f%% busy %.1f%% of CPU time during the run; speed probe %.2f ms before, %.2f ms after",
		100*ratio(cpu1.steal-cpu0.steal, cpu1.total-cpu0.total), 100*ratio(cpu1.busy-cpu0.busy, cpu1.total-cpu0.total),
		ms(speed0), ms(speed1))
	if tr != nil {
		for _, st := range selfTimes(tr.all()) {
			r.printf("span   %-34s n=%-7d total=%-12v self=%v", st.Name, st.Count, st.Total.Round(time.Microsecond), st.Self.Round(time.Microsecond))
		}
		if err := writeSpans(tr, o); err != nil {
			r.fail("write spans: %v", err)
		}
	}
	want, got := endToEndNames, r.e2e
	if o.trace {
		want, got = perLayerNames, r.layers
	}
	metrics := make(map[string]metric, len(want))
	for _, n := range want {
		m, ok := got[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s not measured", n)
			continue
		}
		metrics[n] = m
	}
	if r.attempted < 1 {
		r.fail("no operation attempted")
		r.attempted = 1
	}
	correct := len(r.errs) == 0
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, metrics})
	fmt.Fprintln(out, string(line))
	if !correct {
		return 1
	}
	return 0
}

// workload is one benchmark workload.
type workload struct {
	profile string
	daemon  bool // runs against cfsd
	run     func(options, *report, *tracer) error
}

var workloads = map[string]workload{
	"converge": {profile: "medium", run: runConverge},
	"query":    {profile: "medium", daemon: true, run: runQuery},
	"churn":    {profile: "small", daemon: true, run: runChurn},
}

// worldSeeds derives k world seeds from the workload seed. A run
// spreads its measurements over several worlds so that one unusually
// cheap or costly world does not decide a run's figures.
func worldSeeds(seed int64, k int) []int64 {
	out := make([]int64, k)
	for i := range out {
		out[i] = int64(mix(uint64(seed), uint64(i)) >> 33)
	}
	return out
}

// mix is splitmix64 over (a, b).
func mix(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func writeSpans(tr *tracer, o options) error {
	dir := filepath.Join(o.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)))
	if err != nil {
		return err
	}
	if err := tr.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// treeID names the measured source: the git commit when the checkout
// is a repository, otherwise a digest of the module's Go sources.
func treeID() string {
	if b, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(strings.TrimPrefix(string(b), "ref: "))
		if c, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
			return strings.TrimSpace(string(c))
		}
		return ref
	}
	return "tree:" + sourceDigest(".")
}

// pct formats a latency distribution's sample counts for the record.
func pct(name string, d dist, qs ...float64) string {
	parts := []string{fmt.Sprintf("%s n=%d", name, len(d))}
	for _, q := range qs {
		beyond := int(float64(len(d)) * (1 - q))
		parts = append(parts, fmt.Sprintf("p%g beyond=%d", q*100, beyond))
	}
	return strings.Join(parts, " ")
}

// cpuTicks are the machine-wide counters of /proc/stat's cpu line.
type cpuTicks struct{ busy, steal, total float64 }

// hostCPU reads them; steal is time the hypervisor ran something else
// while this machine's CPUs wanted to run, the usual cause of a run
// that is slower for no reason of its own.
func hostCPU() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		t.total += v
		switch i {
		case 0, 1, 2, 5, 6: // user nice system irq softirq
			t.busy += v
		case 7:
			t.steal += v
		}
	}
	return t
}

// hostSpeed times a fixed single-threaded computation (SHA-256 over
// 16 MiB, best of three). It measures nothing of the program: the
// record carries it so that runs on a host that got faster or slower
// can be told apart from changes in the program.
func hostSpeed() time.Duration {
	buf := make([]byte, 16<<20)
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		t := time.Now()
		sha256.Sum256(buf)
		best = min(best, time.Since(t))
	}
	return best
}
