package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Cluster is an in-process multi-node gschedd deployment: N Servers,
// each on its own real TCP listener with the others configured as
// peers. The cluster tests and BenchmarkCluster3 use it to exercise
// the cluster protocol — consistent-hash routing, owner fetch, backfill,
// replication — without spawning processes; the node-kill/restart
// methods simulate crashes (listener torn down, Server closed, the
// disk tier left behind exactly as a SIGKILL would leave it).
type Cluster struct {
	nodes []*clusterNode
}

type clusterNode struct {
	addr string // fixed for the cluster's lifetime, survives restarts
	cfg  Config // complete per-node config, reused verbatim on restart
	srv  *Server
	hs   *http.Server
	down bool
}

// StartCluster boots n nodes with base's settings. dirs optionally
// assigns per-node cache directories (len n; empty strings mean no
// disk tier for that node); nil means no disk tier anywhere. Base's
// Self/Peers/CacheDir are overwritten per node.
func StartCluster(n int, base Config, dirs []string) (*Cluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 nodes, got %d", n)
	}
	if dirs != nil && len(dirs) != n {
		return nil, fmt.Errorf("cluster: %d dirs for %d nodes", len(dirs), n)
	}

	// Reserve all addresses first: every node's config names every
	// other node, so the full member list must exist before any node
	// boots.
	c := &Cluster{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, err
		}
		lns[i] = ln
		c.nodes = append(c.nodes, &clusterNode{addr: ln.Addr().String()})
	}
	for i, node := range c.nodes {
		cfg := base
		cfg.Self = "http://" + node.addr
		cfg.Peers = nil
		for k, other := range c.nodes {
			if k != i {
				cfg.Peers = append(cfg.Peers, "http://"+other.addr)
			}
		}
		if dirs != nil {
			cfg.CacheDir = dirs[i]
		}
		node.cfg = cfg
		if err := node.start(lns[i]); err != nil {
			for _, ln := range lns[i:] {
				ln.Close()
			}
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

func (n *clusterNode) start(ln net.Listener) error {
	srv, err := New(n.cfg)
	if err != nil {
		return err
	}
	n.srv = srv
	n.hs = &http.Server{Handler: srv.Handler()}
	n.down = false
	go n.hs.Serve(ln)
	return nil
}

// URL returns node i's base URL.
func (c *Cluster) URL(i int) string { return "http://" + c.nodes[i].addr }

// URLs returns every live node's base URL, in node order.
func (c *Cluster) URLs() []string {
	var out []string
	for _, n := range c.nodes {
		if !n.down {
			out = append(out, "http://"+n.addr)
		}
	}
	return out
}

// Server returns node i's in-process Server (nil while killed).
func (c *Cluster) Server(i int) *Server {
	if c.nodes[i].down {
		return nil
	}
	return c.nodes[i].srv
}

// Kill tears node i down abruptly: connections dropped, no drain —
// the in-process equivalent of SIGKILL. The node's disk tier is left
// exactly as the crash left it; Restart recovers from it.
func (c *Cluster) Kill(i int) error {
	n := c.nodes[i]
	if n.down {
		return nil
	}
	n.down = true
	err := n.hs.Close() // closes the listener and every connection
	n.srv.Close()
	n.srv, n.hs = nil, nil
	return err
}

// Restart boots node i again on its original address with its
// original config — same identity on the ring, same cache directory,
// so the disk tier warm-starts.
func (c *Cluster) Restart(i int) error {
	n := c.nodes[i]
	if !n.down {
		return fmt.Errorf("cluster: node %d is running", i)
	}
	// The old listener just closed; the address can linger briefly.
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if ln, err = net.Listen("tcp", n.addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("cluster: rebind %s: %w", n.addr, err)
	}
	return n.start(ln)
}

// WaitHealthy blocks until every live node answers /healthz (or the
// context expires).
func (c *Cluster) WaitHealthy(ctx context.Context) error {
	for _, url := range c.URLs() {
		for {
			resp, err := httpClient.Get(url + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("cluster: %s never became healthy: %w", url, ctx.Err())
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	return nil
}

// Scrape returns every live node's parsed /metrics, in node order.
func (c *Cluster) Scrape() ([]map[string]float64, error) {
	var out []map[string]float64
	for _, n := range c.nodes {
		if n.down {
			continue
		}
		m, err := Scrape("http://" + n.addr + "/metrics")
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Close tears every node down.
func (c *Cluster) Close() error {
	var err error
	for i, n := range c.nodes {
		if n.down || n.srv == nil {
			continue
		}
		if kerr := c.Kill(i); err == nil {
			err = kerr
		}
	}
	return err
}
