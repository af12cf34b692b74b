// Command suite is gsched's benchmark: four workloads that each drive
// a different mix of the system's layers, with end-to-end metrics that
// gate regressions and a traced mode that attributes time to layers.
//
// Run it from the repository root through run.sh, which builds this
// command and gschedd first:
//
//	bash cmd/bench/suite/run.sh --workload huge --seed 1 --seconds 15 --trace 0
//	bash cmd/bench/suite/run.sh --seed 1 -o run.json          # all workloads
//	bash cmd/bench/suite/run.sh --seed 1 --trace 1 --trace-out trace.json
//	bash cmd/bench/suite/run.sh compare base/ head/
//
// Every run prints "workload metric value unit" lines and, as its last
// line, one JSON object with the keys correct, attempted, failed and
// metrics. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRuns is how many cold set-ups a run times; setup_s is their
// median.
const setupRuns = 3

var workloadNames = []string{"proxies", "huge", "bigfunc", "serve"}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	traceOut string
	gschedd  string
	exe      string // this binary, for child processes
	host     Host
}

func (c *runConfig) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Host fingerprints the machine a record was measured on; compare
// refuses to put records of different hosts in one table.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

func (h Host) key() string {
	return fmt.Sprintf("%d/%d/%s/%s/%s", h.NProc, h.GOMAXPROCS, h.CPU, h.OS, h.Arch)
}

// Record is one workload run.
type Record struct {
	Host      Host              `json:"host"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Extra holds informational values that are not gated, such as the
	// serve workload's server-side ledger.
	Extra  map[string]Metric `json:"extra,omitempty"`
	Errors []string          `json:"errors,omitempty"`
}

// SuiteReport is what -o writes when all workloads run in one command.
type SuiteReport struct {
	Host    Host      `json:"host"`
	Seed    int64     `json:"seed"`
	Records []*Record `json:"records"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	if err := suiteMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "suite:", err)
		os.Exit(1)
	}
}

func suiteMain(args []string) error {
	fs := flag.NewFlagSet("suite", flag.ContinueOnError)
	cfg := &runConfig{}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty: all, each in its own process)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&cfg.seconds, "seconds", 15, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&cfg.out, "o", "", "write the run's JSON record (host, seed, metrics) to this file")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the spans to this JSON file")
	fs.StringVar(&cfg.gschedd, "gschedd", "", "gschedd binary for the serve workload")
	setup := fs.Bool("setup-only", false, "internal: time one cold set-up of -workload and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	cfg.trace = *traceFlag == 1
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cfg.exe = exe

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *setup {
		w := findCompile(cfg.workload)
		if w == nil {
			return fmt.Errorf("-setup-only needs a compile workload, got %q", cfg.workload)
		}
		s, raw, err := setupOnly(ctx, w, cfg.seed)
		if err != nil {
			return err
		}
		fmt.Printf("{\"setup_s\": %s, \"measured\": %s}\n",
			strconv.FormatFloat(s, 'g', -1, 64), strconv.FormatFloat(raw, 'g', -1, 64))
		return nil
	}
	cfg.host = hostInfo()
	if cfg.workload == "" {
		return runSuite(ctx, cfg)
	}

	rec, err := runWorkload(ctx, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	for _, e := range rec.Errors {
		logf("%s: check failed: %s", rec.Workload, e)
	}
	printLines(os.Stdout, rec)
	if cfg.out != "" {
		if err := writeJSON(cfg.out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(result{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func findCompile(name string) *compileWorkload {
	for _, w := range compileWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runWorkload measures one workload in this process.
func runWorkload(ctx context.Context, cfg *runConfig) (*Record, error) {
	if cfg.workload == "serve" {
		if cfg.gschedd == "" {
			return nil, fmt.Errorf("the serve workload needs -gschedd")
		}
		if cfg.trace {
			return runServeTraced(ctx, cfg)
		}
		return runServe(ctx, cfg)
	}
	w := findCompile(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload (want one of %s)", strings.Join(workloadNames, ", "))
	}
	if cfg.trace {
		return runCompileTraced(ctx, w, cfg)
	}
	return runCompile(ctx, w, cfg)
}

// runSuite runs every workload, each in a fresh child process so that
// set-up and peak memory start cold, and collects the full records the
// children write.
func runSuite(ctx context.Context, cfg *runConfig) error {
	report := SuiteReport{Host: cfg.host, Seed: cfg.seed}
	failed := 0
	for _, name := range workloadNames {
		rec, err := runChild(ctx, cfg, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		failed += rec.Failed
		report.Records = append(report.Records, rec)
	}
	if cfg.out != "" {
		if err := writeJSON(cfg.out, &report); err != nil {
			return err
		}
	}
	fmt.Printf("suite: %d workloads, %d failed operations\n", len(report.Records), failed)
	return nil
}

// runChild runs one workload in a child process, passing its metric
// lines through, and reads back the record it wrote. The record goes to
// a temporary file beside -o (or in the working directory) that is
// removed once read.
func runChild(ctx context.Context, cfg *runConfig, name string) (*Record, error) {
	dir := "."
	if cfg.out != "" {
		dir = filepath.Dir(cfg.out)
	}
	tmp, err := os.CreateTemp(dir, "suite-"+name+"-*.tmp")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace,
		"-gschedd", cfg.gschedd, "-o", tmp.Name()}
	if cfg.traceOut != "" {
		args = append(args, "-trace-out", strings.TrimSuffix(cfg.traceOut, ".json")+"."+name+".json")
	}
	cmd := exec.CommandContext(ctx, cfg.exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	// Everything but the child's own result line.
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("bad record: %w", err)
	}
	return &rec, nil
}

// newRecord builds a record holding exactly the metrics of defs. A
// missing or non-finite value is a bug in the workload, not a result.
func newRecord(cfg *runConfig, attempted, failed int, values map[string]float64, defs []metricDef) (*Record, error) {
	rec := &Record{
		Host: cfg.host, Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]Metric{},
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured (%v)", d.name, v)
		}
		rec.Metrics[d.name] = Metric{Value: v, Unit: d.unit}
	}
	return rec, nil
}

// printLines writes "workload metric value unit" for every metric.
func printLines(w *os.File, rec *Record) {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := rec.Metrics[d.name]
		fmt.Fprintf(w, "%s %s %s %s\n", rec.Workload, d.name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	for _, name := range sortedKeys(rec.Extra) {
		m := rec.Extra[name]
		fmt.Fprintf(w, "%s %s %s %s\n", rec.Workload, name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// childSetups times n cold set-ups, each in a fresh child process, at
// the reference speed and as measured.
func childSetups(ctx context.Context, cfg *runConfig, n int) (scaled, raw []float64, err error) {
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, cfg.exe, "-setup-only", "-workload", cfg.workload,
			"-seed", strconv.FormatInt(cfg.seed, 10))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up child: %w", err)
		}
		var v struct {
			SetupS   float64 `json:"setup_s"`
			Measured float64 `json:"measured"`
		}
		if err := json.Unmarshal(bytes.TrimSpace(stdout), &v); err != nil {
			return nil, nil, fmt.Errorf("set-up child: %w", err)
		}
		scaled, raw = append(scaled, v.SetupS), append(raw, v.Measured)
	}
	return scaled, raw, nil
}

func hostInfo() Host {
	h := Host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// Only a checkout's own .git names its commit; a copy of the tree
	// inside some other repository must not borrow that one's.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads VmHWM, the peak resident set, of /proc/<pid>.
func peakRSSMiB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
