// Command cfsd is the continuous mapping daemon: it boots a
// facilitymap.System, runs the initial convergence, then serves the
// query API while folding in delta batches as they arrive.
//
// Usage:
//
//	cfsd [-addr :8080] [-profile small|medium|default|paper|large] [-seed N]
//	     [-iterations N] [-follow churn.jsonl] [-poll 1s] [-batch N] [-inflight N] [-grace 10s]
//
// Endpoints:
//
//	GET  /v1/interface/{ip}     one interface's inference
//	GET  /v1/interconnections?a=ASN&b=ASN
//	                            every classified link between an AS pair
//	GET  /v1/snapshot           the epoch-stamped mapping digest
//	POST /v1/interfaces:batch   a JSON array of addresses; one result per
//	                            address, all from one snapshot
//	GET  /v1/interfaces/stream  every inference as NDJSON, one record per
//	                            line (epoch in X-CFS-Epoch)
//	GET  /metrics               the obs snapshot (?format=text for the table)
//	POST /v1/deltas             a JSONL delta batch (worldgen -churn format);
//	                            answers {"epoch":N,"applied":K}
//
// Every query is rendered from the current immutable snapshot and
// stamped with its epoch (body and X-CFS-Epoch header). Each snapshot's
// serving tables are built when it is published, before the batch that
// produced it is acknowledged, so queries are table reads — never
// snapshot-wide builds.
// Writes — POSTed batches and, with -follow, records tailed from a
// growing churn log — are serialized through one writer goroutine.
//
// On SIGINT/SIGTERM the daemon drains: the listener stops accepting,
// in-flight requests finish within the shutdown grace, queued delta
// batches are applied, and only then does the process exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"facilitymap"
	"facilitymap/internal/obs"
	"facilitymap/internal/serve"
)

// Connection deadlines of the listener.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		profile    = flag.String("profile", "small", "world profile: small, medium, default, paper or large")
		seed       = flag.Int64("seed", 42, "simulation seed")
		iterations = flag.Int("iterations", 100, "CFS iteration cap")
		follow     = flag.String("follow", "", "tail this JSONL churn log (see worldgen -churn -out) and apply new records")
		poll       = flag.Duration("poll", time.Second, "poll interval for -follow")
		batch      = flag.Int("batch", 256, "max records per epoch when applying a -follow tail")
		inflight   = flag.Int("inflight", serve.DefaultMaxInFlight, "max concurrently executing requests (excess get 503)")
		grace      = flag.Duration("grace", 10*time.Second, "shutdown grace for in-flight requests")
	)
	flag.Parse()

	sys, err := facilitymap.NewSystem(facilitymap.Config{
		Profile:       *profile,
		Seed:          *seed,
		MaxIterations: *iterations,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "cfsd: converging %s world (seed %d)...\n", *profile, *seed)
	//cfslint:ignore noclock boot-timing for the startup log only; feeds a stderr line, never an inference
	start := time.Now()
	m := sys.MapInterconnections()
	fmt.Fprintf(os.Stderr, "cfsd: epoch 0 published in %v: %d interfaces, %d resolved\n",
		//cfslint:ignore noclock boot-timing for the startup log only; feeds a stderr line, never an inference
		time.Since(start).Round(time.Millisecond),
		len(m.Result().Interfaces), m.Result().Resolved())

	srv := serve.New(sys, serve.Options{
		MaxInFlight: *inflight,
		Obs:         obs.New(0),
	})

	// The writer loop owns every Apply; canceling writerCtx begins the
	// drain, and srv.Done() closes once queued batches have landed.
	writerCtx, stopWriter := context.WithCancel(context.Background())
	go srv.Run(writerCtx)

	if *follow != "" {
		fmt.Fprintf(os.Stderr, "cfsd: following %s (poll %v, batch %d)\n", *follow, *poll, *batch)
		go func() {
			if err := srv.Follow(writerCtx, *follow, *poll, *batch); err != nil &&
				!errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "cfsd: follow: %v\n", err)
			}
		}()
	}

	// Connection deadlines only: a slow or idle client cannot pin a
	// connection, but nothing bounds a running handler. A ReadTimeout
	// would: net/http cancels the request context when it expires
	// while the handler still runs, which would abort a POST waiting
	// on the writer loop or a long stream.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "cfsd: serving on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fatal(err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "cfsd: %v — draining\n", s)
	}

	// Drain order matters: stop accepting and finish in-flight requests
	// first (a POST still executing can enqueue), then retire the
	// writer, which applies everything already accepted before exiting.
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "cfsd: shutdown: %v\n", err)
	}
	stopWriter()
	<-srv.Done()
	if cur := sys.Current(); cur != nil {
		fmt.Fprintf(os.Stderr, "cfsd: drained at epoch %d\n", cur.Epoch())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cfsd:", err)
	os.Exit(1)
}
