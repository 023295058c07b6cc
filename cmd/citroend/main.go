// Command citroend runs the CITROEN tuning service: an HTTP job server with
// a bounded FIFO queue, per-job event journals and cancellation. Every
// measurement is in the job's journal once it is taken: interrupted jobs
// (SIGTERM, crash) resume from their journals when the server restarts on
// the same -dir, and keep every measurement journalled before the stop.
//
// Usage:
//
//	citroend -addr localhost:8171 -dir ./jobs
//	citroend -addr localhost:8171 -dir ./jobs -runners 2 -queue-cap 32
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
		dir         = flag.String("dir", "citroend-jobs", "job state directory (states, journals, results)")
		queueCap    = flag.Int("queue-cap", 16, "max queued-but-not-running jobs")
		runners     = flag.Int("runners", 1, "jobs tuned concurrently")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "max wait for running jobs to stop on shutdown")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof/ on this address")

		fleetMode   = flag.Bool("fleet", false, "dispatch candidate evaluation to remote citroenrunner processes")
		beatTimeout = flag.Duration("heartbeat-timeout", 5*time.Second, "fleet: mark a runner lost when its heartbeat is older than this")
	)
	flag.Parse()

	metrics := obs.NewMetrics()
	var coord *fleet.Coordinator
	if *fleetMode {
		coord = fleet.New(fleet.Options{
			HeartbeatTimeout: *beatTimeout,
			Metrics:          metrics,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		})
	}
	s, err := serve.New(serve.Config{
		Dir:      *dir,
		QueueCap: *queueCap,
		Runners:  *runners,
		Metrics:  metrics,
		Fleet:    coord,
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

	// Graceful shutdown: stop accepting, cancel running jobs (each resumes
	// from its journal on the next start), then exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case got := <-sig:
		fmt.Printf("%s: draining (stopping running jobs, up to %v)...\n", got, *drainWait)
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
