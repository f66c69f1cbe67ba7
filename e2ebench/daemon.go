package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one cfsd process started with its shipped defaults; only
// -addr, -profile and -seed are set.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	flags   []string
	stderr  syncBuffer
	setup   time.Duration // exec until the first 200 on /v1/snapshot
	exited  chan struct{}
	waitErr error
	ctl     *http.Client
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon execs cfsd and waits until it answers /v1/snapshot.
func startDaemon(bin, profile string, seed int64) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + port
	d := &daemon{
		base:   "http://" + addr,
		flags:  []string{"-addr", addr, "-profile", profile, "-seed", strconv.FormatInt(seed, 10)},
		exited: make(chan struct{}),
		ctl:    &http.Client{Timeout: 10 * time.Second},
	}
	d.cmd = exec.Command(bin, d.flags...)
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = &d.stderr
	// If the benchmark dies, the kernel kills cfsd too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cfsd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	poll := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("cfsd exited during boot: %v\n%s", d.waitErr, d.stderr.String())
		default:
		}
		if resp, err := poll.Get(d.base + "/v1/snapshot"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(start)
				return d, nil
			}
		}
		if time.Since(start) > 150*time.Second {
			d.kill()
			return nil, fmt.Errorf("cfsd did not answer within 150s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// cpu is the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + d.pid() + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ=100).
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.pid()) }

// obsSnapshot is the JSON shape of GET /metrics.
type obsSnapshot struct {
	Counters map[string]int64 `json:"counters"`
}

func (d *daemon) metrics() (obsSnapshot, error) {
	var s obsSnapshot
	resp, err := d.ctl.Get(d.base + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// stream reads GET /v1/interfaces/stream and returns its epoch and the
// SHA-256 of its body.
func (d *daemon) stream() (int, string, error) {
	resp, err := d.ctl.Get(d.base + "/v1/interfaces/stream")
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return 0, "", err
	}
	e, err := strconv.Atoi(resp.Header.Get("X-Cfs-Epoch"))
	if err != nil {
		return 0, "", fmt.Errorf("stream epoch header: %w", err)
	}
	return e, hex.EncodeToString(h.Sum(nil)), nil
}

var drainedRE = regexp.MustCompile(`drained at epoch (\d+)`)

// drain sends SIGTERM, waits for the exit, and returns the epoch cfsd
// reports it drained at. A nonzero exit is an error.
func (d *daemon) drain() (int, error) {
	d.ctl.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return 0, fmt.Errorf("cfsd did not exit within 60s of SIGTERM")
	}
	if d.waitErr != nil {
		return 0, fmt.Errorf("cfsd exit: %v\n%s", d.waitErr, d.stderr.String())
	}
	m := drainedRE.FindStringSubmatch(d.stderr.String())
	if m == nil {
		return 0, fmt.Errorf("cfsd did not report its drained epoch:\n%s", d.stderr.String())
	}
	return strconv.Atoi(m[1])
}

// kill stops the process if it still runs and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// daemonWorld is what a daemon workload keeps of one world's segment.
type daemonWorld struct {
	seed     int64
	setup    time.Duration
	rssMB    float64
	cpu      time.Duration
	requests int
	counters map[string]int64
}

// finish reads cfsd's counters, CPU and peak RSS, then drains it and
// checks that it drained at the last acknowledged epoch.
func finish(r *report, d *daemon, dw *daemonWorld, cpu0 time.Duration, lastAck int) error {
	cpu1, err := d.cpu()
	if err != nil {
		return err
	}
	dw.cpu = cpu1 - cpu0
	snap, err := d.metrics()
	if err != nil {
		return err
	}
	dw.counters = snap.Counters
	if dw.rssMB, err = d.peakRSSMB(); err != nil {
		return err
	}
	r.attempted++
	epoch, err := d.drain()
	if err != nil {
		r.failed++
		r.fail("drain: %v", err)
		return nil
	}
	if epoch != lastAck {
		r.failed++
		r.fail("cfsd drained at epoch %d, last acknowledged epoch %d", epoch, lastAck)
	}
	return nil
}

// daemonRecord prints the per-world record and the daemon-side metrics
// shared by both daemon workloads.
func daemonRecord(r *report, o options, dws []daemonWorld, d *daemon) {
	var setup, rss dist
	counters := map[string]int64{}
	var cpu time.Duration
	reqs := 0
	for _, w := range dws {
		setup = append(setup, w.setup.Seconds())
		rss = append(rss, w.rssMB)
		cpu += w.cpu
		reqs += w.requests
		for k, v := range w.counters {
			counters[k] += v
		}
		r.printf("record: world seed=%d setup=%v peak_rss=%.1fMB", w.seed, w.setup.Round(time.Millisecond), w.rssMB)
	}
	r.printf("record: cfsd flags %s (all else default)", strings.Join(d.flags, " "))
	if !o.trace {
		r.endToEnd("setup_s", setup.median(), "s", len(setup))
		r.endToEnd("peak_rss_mb", rss.mean(), "MB", len(rss))
		r.slot(mSetup, setup.median(), "s")
		r.slot(mRSS, rss.mean(), "MB")
		return
	}
	cacheLayers(r, counters)
	r.layer("server.cpu_us_per_req", ratio(float64(cpu)/1e3, float64(reqs)), "us")
}
