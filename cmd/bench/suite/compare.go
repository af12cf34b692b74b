package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// compareMain implements "compare A... B...": records are grouped by
// the directory they sit in (a directory argument stands for the *.json
// files in it), the first directory is the base and the second the
// change. For every workload and end-to-end metric it prints both
// sides' medians and quartiles and a verdict against the bound in
// BENCHMARK.json. It exits 1 on any regression or on a higher failure
// ratio, and 2 when the inputs cannot be compared.
func compareMain(args []string, stdout, stderr io.Writer) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	groups, err := loadGroups(args)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	worse, err := compare(spec, groups[0], groups[1], stdout)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	if worse {
		return 1
	}
	return 0
}

// loadGroups reads the records named by args into two groups by
// directory, in order of first appearance.
func loadGroups(args []string) ([2][]*Record, error) {
	var groups [2][]*Record
	var dirs []string
	for _, a := range args {
		files := []string{a}
		if st, err := os.Stat(a); err == nil && st.IsDir() {
			files, _ = filepath.Glob(filepath.Join(a, "*.json"))
		}
		for _, f := range files {
			dir := filepath.Dir(f)
			g := -1
			for i, d := range dirs {
				if d == dir {
					g = i
				}
			}
			if g < 0 {
				if len(dirs) == 2 {
					return groups, fmt.Errorf("records come from more than two directories (%s)", strings.Join(append(dirs, dir), ", "))
				}
				dirs = append(dirs, dir)
				g = len(dirs) - 1
			}
			recs, err := readRecords(f)
			if err != nil {
				return groups, err
			}
			groups[g] = append(groups[g], recs...)
		}
	}
	if len(dirs) != 2 {
		return groups, fmt.Errorf("want records from exactly two directories, got %d", len(dirs))
	}
	return groups, nil
}

// readRecords reads a file written by -o: one record, or a suite report.
func readRecords(path string) ([]*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var report SuiteReport
	if err := json.Unmarshal(data, &report); err == nil && len(report.Records) > 0 {
		return report.Records, nil
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil || rec.Workload == "" {
		return nil, fmt.Errorf("%s: not a benchmark record", path)
	}
	return []*Record{&rec}, nil
}

// verdict classifies the change against the base for one metric. rel
// is the change's median relative to the base's, signed so that
// positive is worse; spread is the wider of the two sides' interquartile
// ranges relative to their medians. allBetter reports that every run of
// the change beat every run of the base.
func verdict(rel, spread, bound float64, allBetter bool) string {
	switch {
	case allBetter && rel < 0 && -rel > bound:
		return "better"
	case spread > bound && bound > 0:
		return "unresolved"
	case rel > bound:
		return "worse"
	case rel < -bound:
		return "better"
	}
	return "unchanged"
}

// side is one workload's records on one side of a comparison.
type side struct {
	values                  map[string][]float64
	runs, attempted, failed int
}

func collect(recs []*Record) map[string]*side {
	out := map[string]*side{}
	for _, r := range recs {
		s := out[r.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}}
			out[r.Workload] = s
		}
		s.runs++
		s.attempted += r.Attempted
		s.failed += r.Failed
		for name, m := range r.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	return out
}

func (s *side) failRatio() float64 { return float64(s.failed) / float64(s.attempted) }

func compare(spec *benchSpec, base, head []*Record, w io.Writer) (bool, error) {
	hosts := map[string]bool{}
	for _, r := range append(append([]*Record(nil), base...), head...) {
		hosts[r.Host.key()] = true
		if r.Trace {
			return false, fmt.Errorf("%s: traced records hold per-layer metrics, which are not gated", r.Workload)
		}
	}
	if len(hosts) > 1 {
		return false, fmt.Errorf("records come from %d different hosts; numbers from different machines do not share a table", len(hosts))
	}
	// A workload or metric that one side lacks would otherwise pass the
	// gate without a verdict.
	a, b := collect(base), collect(head)
	var workloads []string
	for _, wl := range spec.Workloads {
		switch {
		case a[wl.Name] != nil && b[wl.Name] != nil:
			workloads = append(workloads, wl.Name)
		case a[wl.Name] != nil || b[wl.Name] != nil:
			return false, fmt.Errorf("workload %s has records on one side only", wl.Name)
		}
	}
	if len(workloads) == 0 {
		return false, fmt.Errorf("no workload has records on both sides")
	}
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			for _, s := range []*side{a[wl], b[wl]} {
				if len(s.values[m.Name]) != s.runs {
					return false, fmt.Errorf("%s: metric %s is missing from some records", wl, m.Name)
				}
			}
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tbase q1..q3\thead median\thead q1..q3\tchange\tbound\tverdict\t")
	worse := false
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl].values[m.Name], b[wl].values[m.Name]
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			rel := sign * (bm - am) / am
			spread := max((a3-a1)/am, (b3-b1)/bm)
			allBetter := true
			for _, x := range va {
				for _, y := range vb {
					if sign*(y-x) >= 0 {
						allBetter = false
					}
				}
			}
			v := verdict(rel, spread, *m.Bound, allBetter)
			if v == "worse" {
				worse = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g..%.4g\t%.4g\t%.4g..%.4g\t%+.2f%%\t%.0f%%\t%s\t\n",
				wl, m.Name, am, a1, a3, bm, b1, b3, 100*sign*rel, 100**m.Bound, v)
		}
		fa, fb := a[wl].failRatio(), b[wl].failRatio()
		v := "unchanged"
		if fb > fa {
			v, worse = "worse", true
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%.4g\t\t%.4g\t\t\t0%%\t%s\t\n", wl, fa, fb, v)
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	return worse, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
