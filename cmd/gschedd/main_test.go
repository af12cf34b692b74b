package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"gsched/internal/serve"
)

// TestGscheddSmoke builds the real binary, boots it, drives 100 mixed
// requests (cache hits, misses, an injected timeout, an invalid
// program, an injected panic), scrapes /metrics, checks that the
// counters are consistent with the client's view, and verifies a
// graceful SIGTERM drain. CI runs it in the test job.
func TestGscheddSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary smoke test")
	}
	bin := filepath.Join(t.TempDir(), "gschedd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	addr := freeAddr(t)
	d := startDaemon(t, bin, "-addr", addr, "-debug-panic", "-workers", "4", "-queue", "1024")

	base := "http://" + addr
	waitHealthy(t, base)

	res, err := serve.MixedLoad(base, 100, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	m, err := serve.Scrape(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckCounters(m); err != nil {
		t.Error(err)
	}
	if res.Total != 100 {
		t.Errorf("drove %d requests, want 100", res.Total)
	}
	// No 5xx beyond the injected panic: one 500, zero 503 (the queue
	// is deep enough for 6-way concurrency).
	if res.Codes[500] != 1 || res.Codes[503] != 0 {
		t.Errorf("unexpected 5xx mix: %v", res.Codes)
	}
	if res.Codes[400] == 0 || res.Codes[504] == 0 {
		t.Errorf("injected failures missing from %v", res.Codes)
	}
	if hits := m["gschedd_cache_hits_total"]; hits <= 0 {
		t.Errorf("cache hit ratio is zero (hits %g) on a repeated corpus", hits)
	}
	for _, series := range []string{
		"gschedd_cache_evictions_total", "gschedd_queue_depth",
		`gschedd_phase_seconds_total{phase="region"}`,
	} {
		if _, ok := m[series]; !ok {
			t.Errorf("metrics missing series %s", series)
		}
	}

	// Graceful drain: SIGTERM must exit cleanly (status 0).
	if err := d.terminate(10 * time.Second); err != nil {
		t.Errorf("SIGTERM exit: %v", err)
	}
}

// daemon is a gschedd child process. Its Wait runs on a goroutine of
// its own, so a test can bound how long it waits for an exit and still
// kill and reap the process on every path.
type daemon struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, set before done closes
}

// startDaemon starts bin under a context that ends before the test
// binary's -timeout does: a timeout panic skips every deferred and
// Cleanup kill, but the context still kills the child first.
// Otherwise the child is killed and reaped when the test ends.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if dl, ok := t.Deadline(); ok {
		ctx, cancel = context.WithDeadline(ctx, dl.Add(-min(5*time.Second, time.Until(dl)/4)))
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.WaitDelay = time.Second
	if err := cmd.Start(); err != nil {
		cancel()
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		cancel()
		close(d.done)
	}()
	t.Cleanup(d.kill)
	return d
}

// kill stops the process, if it still runs, and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// terminate sends SIGTERM and returns how the process exited, or an
// error if it is still running after grace.
func (d *daemon) terminate(grace time.Duration) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
		return d.err
	case <-time.After(grace):
		return fmt.Errorf("still running %v after SIGTERM", grace)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal(fmt.Errorf("daemon never became healthy at %s", base))
}
