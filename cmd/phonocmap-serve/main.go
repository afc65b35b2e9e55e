// Command phonocmap-serve runs the PhoNoCMap mapping-optimization
// service: an HTTP JSON API that accepts mapping-DSE jobs, executes them
// on a worker pool with per-job cancellation, and caches results so
// duplicate submissions are answered instantly.
//
// Usage:
//
//	phonocmap-serve [-addr :8080] [-workers N] [-eval-workers 1] [-queue 64]
//	                [-cache 256] [-cache-dir /var/lib/phonocmap] [-cache-disk-max 512MiB]
//	                [-log-level info] [-debug-addr :6060]
//
// -cache-dir enables the persistent result store: completed runs are
// persisted to a content-addressed directory and survive restarts — on
// boot the most recent entries are warmed back into the in-memory LRU
// and repeated submissions replay byte-identical results without
// recomputing. -cache-disk-max caps the store's size on disk (accepts
// plain bytes or KiB/MiB/GiB suffixes; 0 = unbounded), evicting the
// oldest entries past the cap.
//
// Example session:
//
//	curl -s localhost:8080/v1/apps
//	curl -s -X POST localhost:8080/v1/jobs -d '{"app":{"builtin":"VOPD"},"budget":20000}'
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -s localhost:8080/v1/jobs/job-000001/result
//	curl -s -X POST localhost:8080/v1/sweeps -d '{"apps":[{"builtin":"PIP"}],"archs":[{"topology":"mesh"},{"topology":"torus"}],"algorithms":["rs","rpbla"],"budgets":[20000]}'
//	curl -s localhost:8080/v1/sweeps/sweep-000001/result
//	curl -s localhost:8080/metrics
//
// Observability: GET /metrics serves the Prometheus exposition of the
// server's telemetry registry; -debug-addr starts a second, separate
// listener serving net/http/pprof (keep it off the public address).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"phonocmap/internal/service"
	"phonocmap/internal/store"
	"phonocmap/internal/version"
)

// parseLevel maps the -log-level flag to a slog.Level.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// parseSize parses a -cache-disk-max value: plain bytes or a KiB, MiB or
// GiB suffix (KB/MB/GB accepted as the same power-of-two units). Empty
// means unbounded. A size past math.MaxInt64 bytes is rejected rather
// than wrapped, since a wrapped value reads as a small cap or as
// unbounded.
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	upper := strings.ToUpper(s)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
		{"B", 1},
	} {
		if strings.HasSuffix(upper, u.suffix) {
			mult = u.mult
			s = strings.TrimSpace(s[:len(s)-len(u.suffix)])
			break
		}
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("invalid size %q (want e.g. 1073741824, 512MiB, 2GiB)", s)
	}
	return n * mult, nil
}

// debugMux builds the pprof handler set on its own mux, so the debug
// listener exposes nothing else (and the service mux exposes no pprof).
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	evalWorkers := flag.Int("eval-workers", 1, "evaluation workers per run (never changes results, only throughput)")
	queue := flag.Int("queue", 64, "job queue capacity")
	cache := flag.Int("cache", 256, "result cache entries (negative disables the memory tier)")
	cacheDir := flag.String("cache-dir", "", "persist results to this directory (empty = memory-only cache)")
	cacheDiskMax := flag.String("cache-disk-max", "", "cap the persistent store's disk usage (e.g. 512MiB, 2GiB; empty or 0 = unbounded)")
	maxBudget := flag.Int("max-budget", 5_000_000, "largest accepted per-seed evaluation budget")
	maxSeeds := flag.Int("max-seeds", 64, "largest accepted island count per job")
	maxSweepCells := flag.Int("max-sweep-cells", 1024, "largest accepted sweep grid size (cells)")
	maxSweeps := flag.Int("max-sweeps", 128, "sweep registry bound (oldest finished evicted)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty disables)")
	flag.Parse()
	if *showVersion {
		fmt.Printf("phonocmap-serve %s (%s)\n", version.String(), runtime.Version())
		return
	}

	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phonocmap-serve:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: debugMux()}
		go func() {
			logger.Info("pprof debug server listening", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof debug server failed", "error", err)
			}
		}()
		go func() {
			<-ctx.Done()
			_ = dbg.Close()
		}()
	}

	var st store.Store
	if *cacheDir != "" {
		maxBytes, err := parseSize(*cacheDiskMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, "phonocmap-serve:", err)
			os.Exit(2)
		}
		fs, err := store.OpenFile(*cacheDir, store.FileOptions{MaxBytes: maxBytes})
		if err != nil {
			fmt.Fprintln(os.Stderr, "phonocmap-serve:", err)
			os.Exit(2)
		}
		logger.Info("persistent result store open",
			"dir", *cacheDir, "entries", fs.Len(), "max_bytes", maxBytes)
		st = fs
	} else if *cacheDiskMax != "" {
		fmt.Fprintln(os.Stderr, "phonocmap-serve: -cache-disk-max requires -cache-dir")
		os.Exit(2)
	}

	srv := service.New(service.Config{
		Addr:          *addr,
		Workers:       *workers,
		EvalWorkers:   *evalWorkers,
		QueueSize:     *queue,
		CacheSize:     *cache,
		Store:         st,
		MaxBudget:     *maxBudget,
		MaxSeeds:      *maxSeeds,
		MaxSweepCells: *maxSweepCells,
		MaxSweeps:     *maxSweeps,
		Logger:        logger,
	})
	cfg := srv.Config()
	logger.Info("phonocmap-serve listening",
		"version", version.String(), "addr", cfg.Addr,
		"workers", cfg.Workers, "eval_workers", cfg.EvalWorkers,
		"queue", cfg.QueueSize, "cache", cfg.CacheSize)
	if err := srv.ListenAndServe(ctx); err != nil {
		logger.Error("phonocmap-serve failed", "error", err)
		os.Exit(1)
	}
	logger.Info("phonocmap-serve shut down cleanly")
}
