// Command semfeedd is the long-running grading service: the paper's feedback
// engine behind an HTTP JSON API, sized for MOOC-scale traffic. It serves the
// twelve built-in assignments plus any definition files in -kb-dir, which it
// hot-reloads on a poll interval without interrupting in-flight grades.
//
// Usage:
//
//	semfeedd -addr :8080
//	semfeedd -addr :8080 -kb-dir /etc/semfeed/kb -poll 5s
//	semfeedd -addr :8080 -no-builtin -kb-dir ./kb      # file-backed KB only
//	semfeedd -addr :8080 -log-format json -pprof       # production observability
//
// Cluster mode (see README "Running a cluster"):
//
//	semfeedd -mode worker -addr :8081 -store disk -store-dir /var/semfeed/w1
//	semfeedd -mode worker -addr :8082 -store disk -store-dir /var/semfeed/w2 \
//	         -self http://127.0.0.1:8082 -peers http://127.0.0.1:8081,http://127.0.0.1:8082
//	semfeedd -mode coordinator -addr :8080 \
//	         -cluster-workers http://127.0.0.1:8081,http://127.0.0.1:8082
//
// Endpoints:
//
//	POST /v1/grade        grade one submission        {"assignment","id","source"}
//	POST /v1/batch        grade a batch               {"assignment","submissions":[...]}
//	GET  /v1/assignments  list served assignments
//	GET  /v1/trace/{id}   retained trace by request ID (?format=text for the tree);
//	                      on a coordinator: the assembled cross-process tree —
//	                      every process's fragment stitched under the proxy span
//	GET  /v1/store/{key}  content-addressed result store (workers; peer fill)
//	GET  /v1/cluster/statusz      fleet pane: per-worker health, build, SLOs,
//	                              store occupancy, ring share (coordinator)
//	GET  /v1/cluster/metrics.json federated metrics rollup + per-worker breakdown
//	GET  /v1/events       membership flight recorder (coordinator)
//	GET  /healthz         liveness
//	GET  /readyz          readiness (503 while draining, with no KB, or — on a
//	                      coordinator — with zero healthy workers)
//	GET  /statusz         rolling SLO windows + runtime state, JSON
//	GET  /metrics         Prometheus exposition (also /metrics.json, /debug/traces)
//	GET  /debug/pprof/    runtime profiles (only with -pprof)
//
// Every response carries X-Request-ID (minted, or adopted from the request);
// the same ID keys the grade's structured log line, its Report.Stats block
// and its /v1/trace/{id} entry. A coordinator forwards the ID and a W3C
// traceparent to the worker it routes to, so one ID spans the whole cluster.
//
// Overload is shed with 429 + Retry-After once the admission queue is full;
// a coordinator forwards a worker's 429 (and its Retry-After) verbatim.
// SIGTERM or SIGINT drains gracefully: readiness flips, the listener closes,
// and in-flight requests complete (bounded by -drain-timeout).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"semfeed/internal/analysis"
	"semfeed/internal/assignments"
	"semfeed/internal/cluster"
	"semfeed/internal/core"
	"semfeed/internal/obs"
	"semfeed/internal/server"
	"semfeed/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		mode         = flag.String("mode", "standalone", `process role: "standalone" (grade directly), "worker" (grade as a cluster member), or "coordinator" (route to -cluster-workers, grade nothing)`)
		kbDir        = flag.String("kb-dir", "", "directory of assignment definition files to serve and hot-reload")
		poll         = flag.Duration("poll", 5*time.Second, "KB directory poll interval")
		noBuiltin    = flag.Bool("no-builtin", false, "serve only -kb-dir definitions, not the built-in assignments")
		queue        = flag.Int("queue", 64, "admission queue depth before requests are shed with 429")
		workers      = flag.Int("workers", 0, "max concurrent grading requests (0 = GOMAXPROCS)")
		timeout      = flag.Duration("timeout", 10*time.Second, "per-request grading deadline")
		cacheSize    = flag.Int("cache", server.DefaultCacheSize, "memory result-store capacity in entries (0 or negative disables)")
		storeKind    = flag.String("store", "memory", `result store backend: "memory" or "disk"`)
		storeDir     = flag.String("store-dir", "", "disk store directory (required with -store disk)")
		storeMaxMB   = flag.Int64("store-max-mb", 256, "disk store size cap in MiB before LRU eviction")
		self         = flag.String("self", "", "this worker's own base URL, as it appears in -peers")
		peers        = flag.String("peers", "", "comma-separated worker base URLs for ring-aware peer cache fill (requires -self)")
		clusterList  = flag.String("cluster-workers", "", "comma-separated worker base URLs to route to (coordinator mode; required)")
		probeEvery   = flag.Duration("probe-interval", 2*time.Second, "worker /readyz health-probe period (coordinator mode)")
		proxyTimeout = flag.Duration("proxy-timeout", 15*time.Second, "one proxied grade attempt's deadline (coordinator mode; keep above the workers' -timeout)")
		shardTimeout = flag.Duration("shard-timeout", 60*time.Second, "one batch shard's deadline (coordinator mode)")
		proxyRetries = flag.Int("proxy-retries", cluster.DefaultReplicas, "extra ring replicas a failed grade is retried on (coordinator mode; 0 disables rerouting)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
		analyzers    = flag.String("analyzers", "all", `static analyzers run on every submission: "all", "none", or a comma-separated name list (assignment definitions may override per assignment)`)
		logFormat    = flag.String("log-format", "text", `structured log format: "text" or "json"`)
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		traceOn      = flag.Bool("trace", true, "record per-grade span traces (served at /v1/trace/{id})")
		traceSlow    = flag.Duration("trace-slow", 100*time.Millisecond, "traces at least this slow are always retained")
		traceExport  = flag.String("trace-export", "", "JSONL file persisting every completed trace across restarts, rotated at 64 MiB (empty disables)")
		version      = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("semfeedd"))
		return
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		slog.New(slog.NewTextHandler(os.Stderr, nil)).Error("bad -log-level", "error", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, *logFormat, level)
	obs.SetLogger(logger)

	obs.Enable()
	if *traceOn {
		obs.EnableTracing()
		obs.SetSlowTraceThreshold(*traceSlow)
	}
	if *traceExport != "" {
		exp, err := obs.NewJSONLExporter(*traceExport)
		if err != nil {
			logger.Error("open -trace-export failed", "path", *traceExport, "error", err)
			os.Exit(1)
		}
		obs.SetSpanExporter(exp)
		defer exp.Close()
	}

	switch *mode {
	case "coordinator":
		if *proxyRetries < 0 {
			logger.Error("bad -proxy-retries: must be >= 0 (0 disables rerouting)")
			os.Exit(2)
		}
		runCoordinator(logger, *addr, *drainTimeout, coordinatorFlags{
			workers:      splitList(*clusterList),
			probeEvery:   *probeEvery,
			proxyTimeout: *proxyTimeout,
			shardTimeout: *shardTimeout,
			retries:      *proxyRetries,
		})
		return
	case "standalone", "worker":
		// Identical serving paths; "worker" only documents intent (and is what
		// cluster_smoke.sh and the README examples use). Both accept -peers.
	default:
		logger.Error(`bad -mode: want "standalone", "worker" or "coordinator"`, "mode", *mode)
		os.Exit(2)
	}

	driver, err := analysis.ParseDriver(*analyzers)
	if err != nil {
		logger.Error("bad -analyzers", "error", err)
		os.Exit(2)
	}

	reg := server.NewRegistry(*kbDir, func(format string, args ...any) {
		logger.Info("kb", "detail", fmt.Sprintf(format, args...))
	})
	if !*noBuiltin {
		for _, a := range assignments.All() {
			reg.AddBuiltin(a.ID, a.Spec)
		}
	}
	if err := reg.Load(); err != nil {
		logger.Error("load KB failed", "error", err)
		os.Exit(1)
	}
	if reg.Len() == 0 {
		logger.Error("no assignments to serve (empty -kb-dir and -no-builtin)")
		os.Exit(1)
	}
	if *kbDir != "" {
		reg.Start(*poll)
		defer reg.Stop()
	}

	cfg := server.Config{
		Registry:       reg,
		GradeOptions:   core.Options{Analyzers: driver},
		MaxConcurrent:  *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		Logger:         logger,
		EnablePprof:    *pprofOn,
	}
	if err := configureStore(&cfg, logger, *storeKind, *storeDir, *storeMaxMB, *cacheSize, *self, splitList(*peers)); err != nil {
		logger.Error("result store setup failed", "error", err)
		os.Exit(2)
	}
	srv := server.New(cfg)
	errc, err := srv.Start(*addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "error", err)
		os.Exit(1)
	}
	logger.Info("serving",
		"mode", *mode,
		"assignments", reg.Len(),
		"addr", srv.Addr(),
		"store", *storeKind,
		"revision", obs.GetBuildInfo().Revision,
		"pprof", *pprofOn,
		"tracing", *traceOn,
		"trace_export", *traceExport)
	serveUntilSignal(logger, srv, errc, *drainTimeout)
}

// configureStore sets cfg's result store from the store flags. A memory
// store is whatever server.MemoryStore makes of -cache, except that -cache 0
// disables caching too (Config.CacheSize reads 0 as the default size). A
// disk store is validated against the loaded registry on startup: entries
// whose KB version no longer matches the live assignment are evicted before
// serving begins, so a KB rolled forward while the process was down cannot
// resurface stale feedback. With peers, the local store is wrapped in a
// ring-aware peer fill; with caching off there is nothing to fill.
func configureStore(cfg *server.Config, logger *slog.Logger, kind, dir string, maxMB int64, cacheSize int, self string, peers []string) error {
	if cacheSize == 0 {
		cacheSize = -1
	}
	cfg.CacheSize = cacheSize
	switch kind {
	case "memory":
		cfg.Store = server.MemoryStore(cacheSize)
	case "disk":
		if dir == "" {
			return fmt.Errorf(`-store disk requires -store-dir`)
		}
		d, err := store.NewDisk(dir, maxMB<<20)
		if err != nil {
			return err
		}
		evicted := d.Validate(func(assignment, kbVersion string) bool {
			e := cfg.Registry.Get(assignment)
			return e != nil && e.Version == kbVersion
		})
		logger.Info("disk store opened",
			"dir", dir,
			"entries", d.Len(),
			"stale_evicted", evicted)
		cfg.Store = d
	default:
		return fmt.Errorf(`bad -store %q: want "memory" or "disk"`, kind)
	}
	if len(peers) > 0 && cfg.Store != nil {
		if self == "" {
			return fmt.Errorf("-peers requires -self (this worker's own base URL)")
		}
		cfg.Store = cluster.NewPeerFill(cfg.Store, self, peers, nil)
		logger.Info("peer fill enabled", "self", self, "peers", len(peers))
	}
	return nil
}

// drainer is a server that SIGTERM drains: the grading server or the
// coordinator.
type drainer interface {
	Shutdown(ctx context.Context) error
}

// serveUntilSignal waits for SIGTERM/SIGINT or a listener failure. On a
// signal it drains srv within drainTimeout and waits for the listener to
// stop; a failed drain or listener exits the process with status 1.
func serveUntilSignal(logger *slog.Logger, srv drainer, errc <-chan error, drainTimeout time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		t0 := time.Now()
		logger.Info("draining", "signal", s.String(), "drain_timeout", drainTimeout.String())
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("drain failed", "error", err)
			os.Exit(1)
		}
		<-errc
		logger.Info("drained cleanly", "duration_ms", float64(time.Since(t0).Microseconds())/1000)
	case err := <-errc:
		if err != nil {
			logger.Error("serve failed", "error", err)
			os.Exit(1)
		}
	}
}

// coordinatorFlags are the coordinator-only flags.
type coordinatorFlags struct {
	workers      []string
	probeEvery   time.Duration
	proxyTimeout time.Duration
	shardTimeout time.Duration
	retries      int
}

func runCoordinator(logger *slog.Logger, addr string, drainTimeout time.Duration, cf coordinatorFlags) {
	if len(cf.workers) == 0 {
		logger.Error("-mode coordinator requires -cluster-workers")
		os.Exit(2)
	}
	coord := cluster.New(cluster.Config{
		Workers:       cf.workers,
		ProbeInterval: cf.probeEvery,
		ProxyTimeout:  cf.proxyTimeout,
		ShardTimeout:  cf.shardTimeout,
		Replicas:      cf.retries,
		Logger:        logger,
	})
	errc, err := coord.Start(addr)
	if err != nil {
		logger.Error("listen failed", "addr", addr, "error", err)
		os.Exit(1)
	}
	logger.Info("serving",
		"mode", "coordinator",
		"addr", coord.Addr(),
		"workers", len(cf.workers),
		"revision", obs.GetBuildInfo().Revision)
	serveUntilSignal(logger, coord, errc, drainTimeout)
}

// splitList parses a comma-separated flag value, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
