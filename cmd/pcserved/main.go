// Command pcserved is the simulation-as-a-service daemon and its client:
//
//	pcserved serve -addr :8917 -data ./pcserved-data
//	pcserved submit -addr http://localhost:8917 -bench gcc -fb 1
//	pcserved submit -addr ... -bench all -shards 8 -watch
//	pcserved watch  -addr ... j000000
//	pcserved result -addr ... j000000
//	pcserved list   -addr ...
//
// serve runs the HTTP job server: a bounded priority queue with
// per-client admission control feeding a scheduler that maps jobs onto
// the shared worker pool, streams per-interval progress as NDJSON, and
// periodically checkpoints running jobs so a killed or restarted server
// resumes mid-measurement with bit-identical metrics (see EXPERIMENTS.md
// for the API and durability contract).
//
// SIGINT/SIGTERM drains gracefully: admissions stop, running jobs
// checkpoint at their next interval boundary, then the process exits;
// a second signal exits immediately. Jobs interrupted either way are
// resumed by the next `pcserved serve` over the same -data directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"prophetcritic/internal/obs"
	"prophetcritic/internal/service"
	"prophetcritic/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "worker":
		worker(os.Args[2:])
	case "submit":
		submit(os.Args[2:])
	case "watch":
		watch(os.Args[2:])
	case "result":
		result(os.Args[2:])
	case "list":
		list(os.Args[2:])
	case "results":
		results(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pcserved serve  -data <dir> [-addr :8917] [-queue N] [-per-client N]
                  [-workers N] [-ckpt-every N] [-trace-dir <dir>]
                  [-drain-timeout 30s] [-crash-after-checkpoints N]
                  [-lease-ttl 5s] [-log-format text|json]
                  [-debug-addr :8918]
  pcserved worker -addr <coordinator-url> [-name NAME] [-trace-dir <dir>]
                  [-retries 4] [-chaos SPEC] [-log-format text|json]
  pcserved submit -addr <url> (-bench a,b|-trace f.trc) [-prophet kind:KB]
                  [-spec kind:KB]... [-critic kind:KB|none] [-fb N]
                  [-unfiltered] [-warmup N] [-measure N] [-shards K]
                  [-warmup-frac F] [-priority P] [-client NAME] [-watch]
                  [-timeout D] [-retries N]
  pcserved watch  -addr <url> [-json] [-timeout D] [-retries N] <job-id>
  pcserved result -addr <url> [-timeout D] [-retries N] <job-id>
  pcserved list   -addr <url> [-state S] [-limit N] [-timeout D] [-retries N]
  pcserved results -addr <url> [-spec S] [-workload W] [-timeout D] [-retries N]

chaos SPEC (worker fault injection, comma-separated):
  kill-on-lease=N, drop-heartbeats, delay-results=D, duplicate-deliver`)
	os.Exit(2)
}

func serve(args []string) {
	fs := flag.NewFlagSet("pcserved serve", flag.ExitOnError)
	addr := fs.String("addr", ":8917", "listen address")
	data := fs.String("data", "", "data directory (job records + checkpoints); required")
	queueCap := fs.Int("queue", 64, "maximum queued jobs")
	perClient := fs.Int("per-client", 16, "maximum queued+running jobs per client")
	workers := fs.Int("workers", 1, "jobs run concurrently (each fans out on the worker pool)")
	ckptEvery := fs.Int("ckpt-every", 20_000, "measured branches between checkpoints/progress events")
	traceDir := fs.String("trace-dir", "", "directory job trace workloads resolve against (default: -data)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGINT/SIGTERM")
	crashAfter := fs.Int("crash-after-checkpoints", 0,
		"fault injection: exit(3) after N checkpoint writes (used by the CI restart-resume smoke test)")
	leaseTTL := fs.Duration("lease-ttl", 5*time.Second, "work-unit lease duration, at least 10ms; worker heartbeat (TTL/5), re-issue backoff and the idle lease wait derive from it")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	debugAddr := fs.String("debug-addr", "", "listen address for /debug/pprof, /statusz, /metricsz (empty = disabled)")
	fs.Parse(args)
	if *data == "" {
		fatal(fmt.Errorf("serve needs -data"))
	}
	logger := newLogger(*logFormat)
	sim.EnableObs(true) // sampled throughput counters feed /metricsz and /statusz

	sched, err := service.New(service.Config{
		DataDir:               *data,
		QueueCap:              *queueCap,
		PerClient:             *perClient,
		Workers:               *workers,
		CheckpointEvery:       *ckptEvery,
		TraceDir:              *traceDir,
		CrashAfterCheckpoints: *crashAfter,
		Crash: func() {
			fmt.Fprintln(os.Stderr, "pcserved: crash injection fired, exiting")
			os.Exit(3)
		},
		LeaseTTL: *leaseTTL,
		Logger:   logger,
	})
	if err != nil {
		fatal(err)
	}
	sched.Start()

	srv := &http.Server{Addr: *addr, Handler: service.NewServer(sched).Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: service.DebugHandler(sched)}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "pcserved: debug server:", err)
			}
		}()
		fmt.Printf("pcserved: debug endpoints on %s (/debug/pprof, /statusz, /metricsz)\n", *debugAddr)
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("pcserved: serving on %s, data in %s\n", *addr, *data)

	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "pcserved: %v, draining (second signal exits immediately)\n", sig)
		go func() {
			<-sigc
			fmt.Fprintln(os.Stderr, "pcserved: forced exit")
			os.Exit(1)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := sched.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "pcserved:", err)
		}
		srv.Close() // cut event streams; their jobs are checkpointed
		fmt.Fprintln(os.Stderr, "pcserved: drained; unfinished jobs resume on next start")
	}
}

// worker runs a cluster worker node: register with the coordinator,
// heartbeat, pull work units under leases, execute, report. Exit code 7
// marks a chaos-injected death (so harness scripts can tell it from a
// real failure); SIGINT/SIGTERM stop the node cleanly — its in-flight
// lease simply expires and the unit is re-issued elsewhere.
func worker(args []string) {
	fs := flag.NewFlagSet("pcserved worker", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8917", "coordinator base URL")
	name := fs.String("name", "", "worker name in coordinator logs (default: host PID tag)")
	traceDir := fs.String("trace-dir", "", "directory trace workloads resolve against on this node")
	retries := fs.Int("retries", 4, "HTTP retries on connection errors and 429/503")
	chaosSpec := fs.String("chaos", "", "fault injection: kill-on-lease=N,drop-heartbeats,delay-results=D,duplicate-deliver")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	fs.Parse(args)

	chaos, err := service.ParseChaos(*chaosSpec)
	if err != nil {
		fatal(err)
	}
	if *name == "" {
		*name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	sim.EnableObs(true) // sampled throughput counters ride the heartbeat to the coordinator
	w, err := service.NewWorker(service.WorkerConfig{
		Coordinator: *addr,
		Name:        *name,
		TraceDir:    *traceDir,
		Client:      service.NewAPIClient(*addr, 0, *retries), // the 30s default outlasts any lease wait
		Chaos:       chaos,
		Logger:      newLogger(*logFormat),
	})
	if err != nil {
		fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "pcserved worker: %v, stopping\n", sig)
		cancel()
	}()

	err = w.Run(ctx)
	switch {
	case err == service.ErrChaosKilled:
		fmt.Fprintln(os.Stderr, "pcserved worker: chaos kill fired, exiting")
		os.Exit(7)
	case err == context.Canceled || ctx.Err() != nil:
		// clean stop
	case err != nil:
		fatal(err)
	}
}

// newLogger builds the process logger from -log-format, exiting on an
// unknown format so a typo fails fast instead of silently logging text.
func newLogger(format string) *slog.Logger {
	l, err := obs.NewLogger(os.Stderr, format)
	if err != nil {
		fatal(err)
	}
	return l
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcserved:", err)
	os.Exit(1)
}
