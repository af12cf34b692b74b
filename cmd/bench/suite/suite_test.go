package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90); got != 10 {
		t.Errorf("p90 = %g, want 10", got)
	}
	if got := percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("interpolated p50 = %g, want 1.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	// Python: statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	// and statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %g, want 4", got)
	}
}

// fakeRun is a serveRun whose every request is hot program 0, answered
// by handler.
func fakeRun(t *testing.T, workers int, handler http.HandlerFunc) *serveRun {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	s := &serveRun{
		hot:       []serveProg{{instrs: 10}},
		hotBodies: [][]byte{[]byte(`{}`)},
		hotRef:    [][]byte{[]byte("ok")},
		seq:       []int{0},
		samples:   map[int64][]byte{},
		workers:   workers,
		srv:       &server{url: ts.URL},
		hc:        &http.Client{Timeout: 10 * time.Second},
	}
	return s
}

func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	var n atomic.Int64
	handler := func(stall bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if stall && n.Add(1) == 5 {
				time.Sleep(300 * time.Millisecond)
			}
			w.Write([]byte("ok"))
		}
	}
	run := func(stall bool) (lat, late float64) {
		s := fakeRun(t, 1, handler(stall))
		outs := s.openLoop(context.Background(), 100, time.Second)
		if s.failures != 0 {
			t.Fatalf("failures: %v", s.errs)
		}
		if len(outs) < 90 {
			t.Fatalf("sent %d requests, want about 100", len(outs))
		}
		return percentile(latencies(outs, func(o outcome) float64 { return o.latMs }, nil), 99),
			percentile(latencies(outs, func(o outcome) float64 { return o.lateMs }, nil), 99)
	}
	calmLat, calmLate := run(false)
	lat, late := run(true)
	// A 300 ms stall at 100 req/s on one connection delays the next ~30
	// requests: they are sent late and their latency counts from when
	// they were due, not from when they were sent.
	if lat < 200 || late < 100 {
		t.Errorf("after a stall: latency p99 %.1f ms, lateness p99 %.1f ms; want both raised", lat, late)
	}
	if calmLate > 50 || calmLat > 100 {
		t.Errorf("without a stall: latency p99 %.1f ms, lateness p99 %.1f ms", calmLat, calmLate)
	}
}

func TestClosedLoopFindsCapacity(t *testing.T) {
	// Two request slots of 5 ms each: at most 400 requests per second,
	// however many connections wait.
	slots := make(chan struct{}, 2)
	s := fakeRun(t, 8, func(w http.ResponseWriter, r *http.Request) {
		slots <- struct{}{}
		time.Sleep(5 * time.Millisecond)
		<-slots
		w.Write([]byte("ok"))
	})
	outs, wall := s.closedLoop(context.Background(), time.Second)
	if s.failures != 0 {
		t.Fatalf("failures: %v", s.errs)
	}
	rps := float64(len(outs)) / wall.Seconds()
	if rps < 250 || rps > 410 {
		t.Errorf("closed loop measured %.0f req/s, want close to the 400 req/s capacity", rps)
	}
	if got := instrsOf(outs); got != 10*len(outs) {
		t.Errorf("instrs %d, want %d", got, 10*len(outs))
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		rel, spread, bound float64
		allBetter          bool
		want               string
	}{
		{0.02, 0.01, 0.05, false, "unchanged"},
		{0.08, 0.01, 0.05, false, "worse"},
		{-0.08, 0.01, 0.05, false, "better"},
		{0.08, 0.09, 0.05, false, "unresolved"},
		{-0.08, 0.09, 0.05, true, "better"},
		{1e-9, 0, 0, false, "worse"},
		{0, 0, 0, false, "unchanged"},
	} {
		if got := verdict(tc.rel, tc.spread, tc.bound, tc.allBetter); got != tc.want {
			t.Errorf("verdict(%+v) = %s, want %s", tc, got, tc.want)
		}
	}
}

// TestCompareRefusesOneSidedInputs checks that a workload or metric
// present on one side only stops compare instead of passing unjudged.
func TestCompareRefusesOneSidedInputs(t *testing.T) {
	spec := readSpec(t)
	rec := func(workload string, scale float64) *Record {
		r := &Record{Workload: workload, Attempted: 10, Metrics: map[string]Metric{}}
		for _, d := range endToEnd {
			r.Metrics[d.name] = Metric{Value: scale, Unit: d.unit}
		}
		return r
	}
	base := []*Record{rec("proxies", 1), rec("huge", 1)}
	var out strings.Builder
	if worse, err := compare(spec, base, []*Record{rec("proxies", 1), rec("huge", 1)}, &out); err != nil || worse {
		t.Fatalf("identical sides: worse=%v err=%v", worse, err)
	}
	if worse, err := compare(spec, base, []*Record{rec("proxies", 1), rec("huge", 1.5)}, &out); err != nil || !worse {
		t.Errorf("huge 50%% slower on every metric: worse=%v err=%v", worse, err)
	}
	if _, err := compare(spec, base, []*Record{rec("proxies", 1)}, &out); err == nil {
		t.Error("a workload missing from the head passed")
	}
	partial := rec("huge", 1)
	delete(partial.Metrics, "latency_ms_p90")
	if _, err := compare(spec, base, []*Record{rec("proxies", 1), rec("huge", 1), partial}, &out); err == nil {
		t.Error("a record missing a metric passed")
	}
}

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONMatchesSuite(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, suite runs %v", names, workloadNames)
	}
	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, suite reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json %s/%s/%s, suite %s/%s/%s",
					kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)

	// Every per-layer metric except the tracer's self-checks names the
	// end-to-end metric and workload it should move.
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "trace.") {
			continue
		}
		if len(d.moves) == 0 {
			t.Errorf("%s moves no end-to-end metric", d.name)
		}
		for _, mv := range d.moves {
			metric, wl, ok := strings.Cut(mv, "@")
			if !ok || !contains(names, wl) || !hasMetric(spec.EndToEnd, metric) {
				t.Errorf("%s: %q does not name an end-to-end metric and a workload", d.name, mv)
			}
		}
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func hasMetric(ms []specMetric, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

func TestParseSpecRejects(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(map[string]any){
		"bad name":       func(m map[string]any) { metric(m, "end_to_end", 0)["name"] = "setup s" },
		"bound too wide": func(m map[string]any) { metric(m, "end_to_end", 1)["bound"] = 0.3 },
		"missing bound":  func(m map[string]any) { delete(metric(m, "end_to_end", 1), "bound") },
		"no unit":        func(m map[string]any) { metric(m, "per_layer", 0)["unit"] = "" },
		"bad direction":  func(m map[string]any) { metric(m, "per_layer", 0)["better"] = "more" },
		"per-layer bound": func(m map[string]any) {
			metric(m, "per_layer", 0)["bound"] = 0.1
		},
		"duplicate name": func(m map[string]any) { metric(m, "per_layer", 1)["name"] = "setup_s" },
		"unknown key":    func(m map[string]any) { m["extra"] = 1 },
		"too many end-to-end metrics": func(m map[string]any) {
			ms := m["end_to_end"].([]any)
			for i := 0; len(ms) <= 16; i++ {
				ms = append(ms, map[string]any{"name": "x" + string(rune('a'+i)), "unit": "s", "better": "lower", "bound": 0.1})
			}
			m["end_to_end"] = ms
		},
	} {
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		edit(m)
		bad, _ := json.Marshal(m)
		if _, err := parseSpec(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := parseSpec(data); err != nil {
		t.Errorf("BENCHMARK.json rejected: %v", err)
	}
}

func metric(m map[string]any, kind string, i int) map[string]any {
	return m[kind].([]any)[i].(map[string]any)
}

// TestSmoke builds the suite and gschedd and runs every workload with a
// one-second window, untraced and traced: every metric must appear,
// nothing may fail, and the traced layers must account for the traced
// wall time.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs every workload")
	}
	dir := t.TempDir()
	suite, gschedd := filepath.Join(dir, "suite"), filepath.Join(dir, "gschedd")
	for _, b := range [][]string{{"build", "-o", suite, "."}, {"build", "-o", gschedd, "../../../cmd/gschedd"}} {
		if out, err := exec.Command("go", b...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", b, err, out)
		}
	}
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(suite, "-workload", w, "-seed", "3", "-seconds", "1", "-trace", trace, "-gschedd", gschedd)
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace=%s: %v", w, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w, trace, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%s: %d of %d operations failed", w, trace, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s missing or in the wrong unit", w, trace, d.name)
				}
			}
			if r := res.Metrics["trace.self_sum_ratio"].Value; trace == "1" && (r < 0.95 || r > 1.05) {
				t.Errorf("%s: layer self times sum to %.3f of the traced wall time", w, r)
			}
		}
	}
}
