// Command citroend runs the CITROEN tuning service: an HTTP job server with
// a bounded FIFO queue, per-job event streams, cancellation and durable
// checkpoints. Interrupted jobs (SIGTERM, crash) resume from their last
// checkpoint when the server restarts on the same -dir.
//
// Usage:
//
//	citroend -addr localhost:8171 -dir ./jobs
//	citroend -addr localhost:8171 -dir ./jobs -runners 2 -checkpoint-every 10
//	citroend -addr localhost:8171 -dir ./jobs -fleet
//
// With -fleet, candidate evaluation is dispatched to remote citroenrunner
// processes that register against this server (see cmd/citroenrunner);
// jobs run locally while no runner is registered.
//
// Submit and follow jobs with citroenctl.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Slow-client bounds for the HTTP server. There is deliberately no read or
// write timeout on bodies: event streams and batch executions are long-lived.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:8171", "HTTP listen address")
		dir         = flag.String("dir", "citroend-jobs", "job state directory (checkpoints, journals, results)")
		queueCap    = flag.Int("queue-cap", 16, "max queued-but-not-running jobs")
		runners     = flag.Int("runners", 1, "jobs tuned concurrently")
		ckptEvery   = flag.Int("checkpoint-every", 5, "default measurements between checkpoints")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "max wait for running jobs to checkpoint on shutdown")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof/ on this address")

		fleetMode   = flag.Bool("fleet", false, "dispatch candidate evaluation to remote citroenrunner processes")
		stealAfter  = flag.Duration("steal-after", 30*time.Second, "fleet: duplicate a straggler batch onto another runner after this long")
		beatTimeout = flag.Duration("heartbeat-timeout", 5*time.Second, "fleet: mark a runner lost when its heartbeat is older than this")
	)
	flag.Parse()

	metrics := obs.NewMetrics()
	var coord *fleet.Coordinator
	if *fleetMode {
		coord = fleet.New(fleet.Options{
			HeartbeatTimeout: *beatTimeout,
			StealAfter:       *stealAfter,
			Metrics:          metrics,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		})
	}
	s, err := serve.New(serve.Config{
		Dir:             *dir,
		QueueCap:        *queueCap,
		Runners:         *runners,
		CheckpointEvery: *ckptEvery,
		Metrics:         metrics,
		Fleet:           coord,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var msrv *obs.MetricsServer
	if *metricsAddr != "" {
		msrv, err = obs.Serve(*metricsAddr, metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-addr: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("Serving http://%s/metrics (pprof under /debug/pprof/)\n", msrv.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	mode := ""
	if coord != nil {
		mode = ", fleet dispatch on — point citroenrunner at this address"
	}
	fmt.Printf("citroend listening on http://%s (jobs in %s%s)\n", ln.Addr(), *dir, mode)

	// Graceful shutdown: stop accepting, cancel running jobs (each takes a
	// final checkpoint and resumes on the next start), then exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case got := <-sig:
		fmt.Printf("%s: draining (checkpointing running jobs, up to %v)...\n", got, *drainWait)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "drain: %v\n", err)
	}
	httpCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		httpSrv.Close()
	}
	if msrv != nil {
		msrv.Shutdown(nil)
	}
	fmt.Println("citroend stopped; unfinished jobs will resume on restart")
}
