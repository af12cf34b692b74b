// Command gschedd is the long-running scheduling daemon: an HTTP/JSON
// service over the compile/schedule pipeline with a bounded worker
// pool, a content-addressed response cache, admission control and a
// /metrics observability endpoint.
//
// Usage:
//
//	gschedd [flags]
//
// Endpoints:
//
//	POST /schedule        schedule a mini-C or assembly program
//	POST /schedule/batch  schedule several programs in one request
//	GET  /jobs/{id}       poll an async exact (level=optimal) job
//	GET  /metrics         Prometheus text metrics
//	GET  /healthz         liveness probe
//	GET  /debug/pprof/    Go profiling
//
// Auto-tuning is an offline search, not an endpoint: run it with
// go run ./cmd/experiments -fig tuned.
//
// Example:
//
//	gschedd -addr :8421 &
//	curl -s localhost:8421/schedule -d '{
//	  "source": "int main(int n) { int s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }",
//	  "level": "speculative",
//	  "simulate": {"entry": "main", "args": [10]}
//	}'
//
// SIGINT/SIGTERM drain gracefully: in-flight schedules finish (up to
// -drain), new connections are refused.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gsched/internal/serve"
)

var (
	addr       = flag.String("addr", ":8421", "listen address")
	workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent scheduling jobs (default GOMAXPROCS)")
	queue      = flag.Int("queue", 0, "admitted jobs waiting beyond the workers before 503 (default 2×workers)")
	cacheMB    = flag.Int64("cache-mb", 64, "in-memory response cache size in MiB (negative disables the whole store stack)")
	cacheDir   = flag.String("cache-dir", "", "persistent cache directory (empty: memory only)")
	diskMB     = flag.Int64("disk-mb", 256, "on-disk cache size in MiB (needs -cache-dir)")
	timeout    = flag.Duration("timeout", 30*time.Second, "per-request scheduling budget")
	maxBody    = flag.Int64("max-body", 4<<20, "request body limit in bytes (413 above)")
	drain      = flag.Duration("drain", 30*time.Second, "graceful shutdown budget for in-flight requests")
	debugPanic = flag.Bool("debug-panic", false, "honour debug_panic requests (crash drills; never in production)")
	logJSON    = flag.Bool("log-json", true, "structured JSON request logs on stderr (false: text)")

	exactWorkers = flag.Int("exact-workers", 1, "concurrent exact-tier (level=optimal) jobs")
	exactQueue   = flag.Int("exact-queue", 16, "queued exact jobs before 503")
	exactTimeout = flag.Duration("exact-timeout", 60*time.Second, "per-job deadline for exact runs")

	self           = flag.String("self", "", "this node's advertised base URL, e.g. http://10.0.0.1:8421 (required with -peers)")
	peers          = flag.String("peers", "", "comma-separated base URLs of the other cluster nodes (enables the peer tier)")
	peerTimeout    = flag.Duration("peer-timeout", 500*time.Millisecond, "budget for one peer conversation before computing locally")
	replicateAfter = flag.Int("replicate-after", 2, "peer fetches of a key before it is replicated locally (negative: first fetch)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gschedd:", err)
		os.Exit(1)
	}
}

func run() error {
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	cacheBytes := *cacheMB << 20
	if *cacheMB < 0 {
		cacheBytes = -1
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	srv, err := serve.New(serve.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		MaxBodyBytes:    *maxBody,
		Timeout:         *timeout,
		CacheBytes:      cacheBytes,
		CacheDir:        *cacheDir,
		DiskCacheBytes:  *diskMB << 20,
		Self:            *self,
		Peers:           peerList,
		PeerTimeout:     *peerTimeout,
		ReplicateAfter:  *replicateAfter,
		ExactWorkers:    *exactWorkers,
		ExactQueueDepth: *exactQueue,
		ExactTimeout:    *exactTimeout,
		AllowDebugPanic: *debugPanic,
		Logger:          logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "workers", *workers,
			"cache_mb", *cacheMB, "timeout", timeout.String())
		errCh <- hs.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("draining", "budget", drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("drained")
	return nil
}
