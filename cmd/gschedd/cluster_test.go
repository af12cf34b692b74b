package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gsched/internal/serve"
)

// TestGscheddClusterSmoke is the process-level cluster drill CI runs
// in the test job: build the real binary, boot three nodes
// wired as peers with per-node cache directories, drive mixed load
// across all of them, SIGKILL one node mid-workload, keep driving the
// survivors, restart the killed node on its old address and cache
// directory, and check that
//
//   - the cluster-wide counters reconcile
//     (memory + disk + peer hits + computes == lookups),
//   - the restarted node warm-starts: its disk tier serves hits,
//   - corpus responses stay byte-identical through the whole drill.
func TestGscheddClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary cluster smoke test")
	}
	bin := filepath.Join(t.TempDir(), "gschedd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	const n = 3
	addrs := make([]string, n)
	urls := make([]string, n)
	dirs := make([]string, n)
	for i := range addrs {
		addrs[i] = freeAddr(t)
		urls[i] = "http://" + addrs[i]
		dirs[i] = t.TempDir()
	}
	start := func(i int) *daemon {
		var peers []string
		for k, u := range urls {
			if k != i {
				peers = append(peers, u)
			}
		}
		return startDaemon(t, bin,
			"-addr", addrs[i],
			"-self", urls[i],
			"-peers", strings.Join(peers, ","),
			"-cache-dir", dirs[i],
			"-replicate-after", "-1", // replicate on first contact: deterministic warm disks
			"-workers", "2", "-queue", "1024")
	}
	nodes := make([]*daemon, n)
	for i := range nodes {
		nodes[i] = start(i)
	}
	for _, u := range urls {
		waitHealthy(t, u)
	}

	// Phase 1: mixed load over all three nodes.
	before, err := serve.Load(serve.LoadOptions{
		Targets: urls, N: 60, Concurrency: 4, Seed: 11, SkipErrors: true})
	if err != nil {
		t.Fatal(err)
	}
	if before.Codes[200] != before.Total {
		t.Fatalf("phase 1 codes: %v", before.Codes)
	}

	// Phase 2: SIGKILL node 0 — no drain, no goodbye — and keep
	// driving the survivors.
	nodes[0].kill()
	during, err := serve.Load(serve.LoadOptions{
		Targets: urls[1:], N: 40, Concurrency: 4, Seed: 12, SkipErrors: true, Tolerate: true})
	if err != nil {
		t.Fatal(err)
	}
	for class, body := range before.Bodies {
		if !strings.HasPrefix(class, "corpus") {
			continue
		}
		if dbody, ok := during.Bodies[class]; ok && string(dbody) != string(body) {
			t.Errorf("class %s: body changed after SIGKILL", class)
		}
	}

	// Phase 3: restart node 0 on its old address and cache directory,
	// replay phase 1's request stream against it alone.
	nodes[0] = start(0)
	waitHealthy(t, urls[0])
	after, err := serve.Load(serve.LoadOptions{
		Targets: urls[:1], N: 60, Concurrency: 4, Seed: 11, SkipErrors: true})
	if err != nil {
		t.Fatal(err)
	}
	if after.Codes[200] != after.Total {
		t.Fatalf("phase 3 codes: %v", after.Codes)
	}
	for class, body := range before.Bodies {
		abody, ok := after.Bodies[class]
		if !ok {
			t.Errorf("class %s missing after restart", class)
			continue
		}
		if string(abody) != string(body) {
			t.Errorf("class %s: body differs across SIGKILL/restart", class)
		}
	}
	if after.DiskHeaders == 0 {
		t.Errorf("restarted node served no disk hits: %+v", after)
	}

	// The restarted node's own counters must reconcile against the
	// phase 3 run (its counters reset at restart and phase 3 is the
	// only traffic it has seen since).
	m, err := serve.Scrape(urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := after.CheckCounters(m); err != nil {
		t.Error(err)
	}
	if warm := m[`gschedd_store_hits_total{tier="disk"}`]; warm <= 0 {
		t.Errorf("disk tier hits = %g after warm restart, want > 0", warm)
	}

	// Graceful drain still works on a cluster node.
	if err := nodes[1].terminate(10 * time.Second); err != nil {
		t.Errorf("cluster node SIGTERM exit: %v", err)
	}
}
