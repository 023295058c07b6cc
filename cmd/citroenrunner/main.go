// Command citroenrunner is a remote evaluation worker for a citroend
// server running with -fleet. It serves compile batches over HTTP,
// registers itself with the coordinator, heartbeats to stay dispatchable,
// and drains gracefully on SIGTERM (deregisters, then finishes in-flight
// batches).
//
// Usage:
//
//	citroenrunner -coordinator http://localhost:8171 -addr localhost:8271
//	citroenrunner -coordinator http://localhost:8171 -addr localhost:8272 -workers 4
//
// One evaluator per (bench, platform, seed) is built lazily on first use
// and cached for the process lifetime, so a runner warms up once per job
// configuration.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
)

// Slow-client bounds for the HTTP server. There is deliberately no read or
// write timeout on bodies: event streams and batch executions are long-lived.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		coordinator = flag.String("coordinator", "http://localhost:8171", "citroend base URL (must run with -fleet)")
		addr        = flag.String("addr", "localhost:8271", "HTTP listen address for batch requests")
		advertise   = flag.String("advertise", "", "base URL the coordinator should dial back (default http://<addr>)")
		workers     = flag.Int("workers", 0, "compile workers per batch (0 = GOMAXPROCS)")
		beatEvery   = flag.Duration("heartbeat", 2*time.Second, "heartbeat period")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	self := *advertise
	if self == "" {
		self = "http://" + ln.Addr().String()
	}
	self = strings.TrimRight(self, "/")

	rs := &fleet.RunnerServer{Workers: *workers, Logf: logf}
	httpSrv := &http.Server{Handler: rs.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logf("citroenrunner listening on http://%s (advertising %s)", ln.Addr(), self)

	ctx, cancel := context.WithCancel(context.Background())
	agent := &fleet.Agent{
		Coordinator: strings.TrimRight(*coordinator, "/"),
		SelfURL:     self,
		Workers:     *workers,
		Interval:    *beatEvery,
		Logf:        logf,
	}
	agentDone := make(chan error, 1)
	go func() { agentDone <- agent.Run(ctx) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case got := <-sig:
		logf("%s: draining (deregistering, finishing in-flight batches)...", got)
	}

	// Deregister first so the coordinator stops dispatching here, then let
	// in-flight batches finish before the listener closes.
	cancel()
	select {
	case <-agentDone:
	case <-time.After(5 * time.Second):
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		httpSrv.Close()
	}
	logf("citroenrunner stopped")
}
