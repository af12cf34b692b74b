package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// metricDef names one metric the suite reports. For a per-layer metric,
// moves lists the end-to-end metrics it should move, each as
// "<metric>@<workload>"; the trace.* self-checks move nothing.
type metricDef struct {
	name, unit, better string
	moves              []string
}

// endToEnd are the metrics every workload reports with tracing off. The
// sim_cycles rows are the paper's Figure 8 quantity: the four SPEC
// proxies, scheduled with the configuration the workload runs and
// simulated on the RS6K model. They do not depend on the seed, which is
// what lets them gate with bound 0.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "latency_ms_p50", unit: "ms", better: "lower"},
	{name: "latency_ms_p90", unit: "ms", better: "lower"},
	{name: "instrs_per_s", unit: "instr/s", better: "higher"},
	{name: "cpu_us_per_instr", unit: "us/instr", better: "lower"},
	{name: "peak_rss_mib", unit: "MiB", better: "lower"},
	{name: "sim_cycles.li", unit: "cycles", better: "lower"},
	{name: "sim_cycles.eqntott", unit: "cycles", better: "lower"},
	{name: "sim_cycles.espresso", unit: "cycles", better: "lower"},
	{name: "sim_cycles.gcc", unit: "cycles", better: "lower"},
	{name: "sim_cycles_geomean", unit: "cycles", better: "lower"},
}

// perLayer are the metrics of the traced run (-trace 1), named by the
// module whose public calls the spans wrap.
var perLayer = []metricDef{
	{"frontend.ns_per_instr", "ns/instr", "lower", []string{"latency_ms_p50@proxies", "instrs_per_s@huge", "latency_ms_p50@serve"}},
	{"frontend.allocs_per_instr", "allocs/instr", "lower", []string{"latency_ms_p50@proxies", "instrs_per_s@huge"}},
	{"rename.ns_per_instr", "ns/instr", "lower", []string{"latency_ms_p50@proxies"}},
	{"pdg.ns_per_instr", "ns/instr", "lower", []string{"latency_ms_p50@proxies"}},
	{"core.region_ns_per_instr", "ns/instr", "lower", []string{"instrs_per_s@bigfunc", "latency_ms_p90@bigfunc"}},
	{"core.local_ns_per_instr", "ns/instr", "lower", []string{"latency_ms_p50@proxies"}},
	{"xform.loops_ns_per_instr", "ns/instr", "lower", []string{"latency_ms_p50@proxies"}},
	{"xform.self_ns_per_instr", "ns/instr", "lower", []string{"instrs_per_s@huge"}},
	{"xform.allocs_per_instr", "allocs/instr", "lower", []string{"instrs_per_s@huge", "peak_rss_mib@huge"}},
	{"verify.ns_per_instr", "ns/instr", "lower", []string{"latency_ms_p50@bigfunc"}},
	{"print.ns_per_instr", "ns/instr", "lower", []string{"instrs_per_s@huge"}},
	{"print.bytes_per_instr", "B/instr", "lower", []string{"instrs_per_s@huge"}},
	{"sim.ns_per_cycle", "ns/cycle", "lower", []string{"latency_ms_p90@serve"}},
	{"parallel.speedup", "x", "higher", []string{"instrs_per_s@huge"}},
	{"parallel.eff", "ratio", "higher", []string{"instrs_per_s@huge"}},
	{"core.regions_per_kinstr", "1/kinstr", "higher", []string{"sim_cycles_geomean@proxies"}},
	{"core.useful_moves_per_kinstr", "1/kinstr", "higher", []string{"sim_cycles_geomean@proxies"}},
	{"core.spec_moves_per_kinstr", "1/kinstr", "higher", []string{"sim_cycles_geomean@proxies"}},
	{"xform.loops_per_kinstr", "1/kinstr", "higher", []string{"sim_cycles_geomean@proxies"}},
	{"ir.growth", "ratio", "lower", []string{"sim_cycles_geomean@proxies", "peak_rss_mib@huge"}},
	{"trace.overhead_ratio", "ratio", "lower", nil},
	{"trace.self_sum_ratio", "ratio", "higher", nil},
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// loadSpec reads and validates a BENCHMARK.json file.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := parseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// parseSpec decodes BENCHMARK.json strictly (no unknown keys) and checks
// every limit the file format sets.
func parseSpec(data []byte) (*benchSpec, error) {
	if len(data) > 64<<10 {
		return nil, fmt.Errorf("file exceeds 64 KiB")
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	if n := len(s.Command); n < 1 || n > 32 {
		return nil, fmt.Errorf("command has %d strings, want 1-32", n)
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return nil, fmt.Errorf("command string %q is too long or leaves the repository", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		return nil, fmt.Errorf("paths has %d entries, want 1-16", n)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return nil, fmt.Errorf("bad path %q", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return nil, fmt.Errorf("run_seconds %d outside 1-60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return nil, fmt.Errorf("%d workloads, want 2-8", n)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return nil, err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return nil, fmt.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	check := func(kind string, ms []specMetric, lo, hi int, bounded bool) error {
		if len(ms) < lo || len(ms) > hi {
			return fmt.Errorf("%d %s metrics, want %d-%d", len(ms), kind, lo, hi)
		}
		for _, m := range ms {
			if err := use(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better must be lower or higher", m.Name)
			}
			switch {
			case bounded && m.Bound == nil:
				return fmt.Errorf("metric %s: missing bound", m.Name)
			case bounded && (*m.Bound < 0 || *m.Bound > 0.25):
				return fmt.Errorf("metric %s: bound %g outside 0-0.25", m.Name, *m.Bound)
			case !bounded && m.Bound != nil:
				return fmt.Errorf("per-layer metric %s has a bound", m.Name)
			}
		}
		return nil
	}
	if err := check("end_to_end", s.EndToEnd, 1, 16, true); err != nil {
		return nil, err
	}
	if err := check("per_layer", s.PerLayer, 1, 128, false); err != nil {
		return nil, err
	}
	for _, m := range s.EndToEnd {
		if m.Name == "setup_s" {
			if m.Unit != "s" || m.Better != "lower" {
				return nil, fmt.Errorf("setup_s must have unit s and better lower")
			}
			return &s, nil
		}
	}
	return nil, fmt.Errorf("no setup_s metric")
}
