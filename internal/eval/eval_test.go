package eval

import (
	"strconv"
	"strings"
	"testing"

	"gsched/internal/core"
	"gsched/internal/workload"
)

// TestFigures256Bands asserts the minmax loop's cycles per iteration
// stay within one cycle of the paper's published bands: Figure 2 is
// 20-22 (we match it exactly), Figure 5 is 12-13, Figure 6 is 11-12.
func TestFigures256Bands(t *testing.T) {
	type band struct{ lo, hi int64 }
	bands := map[core.Level]band{
		core.LevelNone:        {20, 22},
		core.LevelUseful:      {11, 14},
		core.LevelSpeculative: {10, 13},
	}
	for level, b := range bands {
		c, _, err := MinMaxCycles(level)
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		for u, cyc := range c {
			if cyc < b.lo || cyc > b.hi {
				t.Errorf("%s, %d updates: %d cycles, want within [%d,%d]", level, u, cyc, b.lo, b.hi)
			}
		}
		if level == core.LevelNone {
			if c != [3]int64{20, 21, 22} {
				t.Errorf("Figure 2 should reproduce exactly: got %v", c)
			}
		}
	}
}

// TestMinMaxCyclesDeterministic guards against nondeterminism in the
// scheduling pipeline (map iteration, unstable sorts).
func TestMinMaxCyclesDeterministic(t *testing.T) {
	first, _, err := MinMaxCycles(core.LevelSpeculative)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		c, _, err := MinMaxCycles(core.LevelSpeculative)
		if err != nil {
			t.Fatal(err)
		}
		if c != first {
			t.Fatalf("run %d: %v != %v", k, c, first)
		}
	}
}

func TestFigures256Table(t *testing.T) {
	tab, err := Figures256()
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	for _, want := range []string{"none", "useful", "speculative", "20-22", "11-12"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

func TestScheduledListings(t *testing.T) {
	useful, err := ScheduledListing(core.LevelUseful)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5's signature motion: BL1 (CL.0) must contain the AI
	// before the BF terminator.
	cl0 := useful[strings.Index(useful, "CL.0:"):]
	cl0 = cl0[:strings.Index(cl0, "CL.6:")]
	if !strings.Contains(cl0, "AI ") {
		t.Errorf("useful listing: I18 not in BL1:\n%s", useful)
	}
	spec, err := ScheduledListing(core.LevelSpeculative)
	if err != nil {
		t.Fatal(err)
	}
	cl0 = spec[strings.Index(spec, "CL.0:"):]
	cl0 = cl0[:strings.Index(cl0, "CL.6:")]
	// Figure 6 moves speculative compares into BL1: at least three C
	// instructions (I3, I19 and one of I5/I8/I12/I15).
	if strings.Count(cl0, "\tC ") < 3 {
		t.Errorf("speculative listing: expected speculative compares in BL1:\n%s", spec)
	}
}

func TestFigure3And4Renderings(t *testing.T) {
	f3 := Figure3()
	if !strings.Contains(f3, "BL2 -> BL3 BL7") {
		// Block numbering in the rendering is 1-based over the whole
		// function (prologue is BL1), so the paper's BL1 is our BL2.
		t.Errorf("Figure 3 rendering unexpected:\n%s", f3)
	}
	f4, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's BL2~(BL1,T): in function numbering, BL3 depends on
	// (BL2, F-fallthrough edge rendered as F).
	if !strings.Contains(f4, "BL3: (BL2,F)") {
		t.Errorf("Figure 4 rendering unexpected:\n%s", f4)
	}
}

// small helps keep the heavy workload-based tests quick: only two
// workloads unless -short is off.
func evalWorkloads(t *testing.T) []*workload.Workload {
	if testing.Short() {
		return []*workload.Workload{workload.ByName("eqntott")}
	}
	return workload.All()
}

func TestFigure8ShapeClaims(t *testing.T) {
	ws := evalWorkloads(t)
	tab, err := Figure8(ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(ws) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(ws))
	}
	t.Logf("\n%s", tab)
	// The paper's central qualitative claim: adding speculation never
	// loses to useful-only by more than noise, and LI's gain is
	// speculative-dominated.
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	for _, row := range tab.Rows {
		name, useful, spec := row[0], parse(row[2]), parse(row[3])
		if spec < useful-2.0 {
			t.Errorf("%s: speculative (%.1f%%) much worse than useful (%.1f%%)", name, spec, useful)
		}
		if name == "li" && spec < useful+2.0 {
			t.Errorf("li should be speculative-dominated: useful=%.1f%% spec=%.1f%%", useful, spec)
		}
	}
}

func TestFigure7Runs(t *testing.T) {
	ws := evalWorkloads(t)
	tab, err := Figure7(ws, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	if len(tab.Rows) != len(ws) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(ws))
	}
	for _, row := range tab.Rows {
		if !strings.HasSuffix(row[2], "%") {
			t.Errorf("%s: CTO cell %q not a percentage", row[0], row[2])
		}
	}
}

func TestAblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	tab, err := Ablation([]*workload.Workload{workload.ByName("eqntott"), workload.ByName("gcc")})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	if len(tab.Header) != 8 {
		t.Errorf("header = %v", tab.Header)
	}
}

func TestWiderMachinesMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("wider machines is slow")
	}
	tab, err := WiderMachines([]*workload.Workload{workload.ByName("eqntott")})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
}

// TestCodeCharacterContrast reproduces the paper's §1 claim: the
// scientific kernel (largest blocks) must gain less from global
// scheduling than every Unix-type proxy.
func TestCodeCharacterContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("character experiment is slow")
	}
	tab, err := CodeCharacter()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	var sci float64
	var others []float64
	for _, row := range tab.Rows {
		v := parse(row[3])
		if row[0] == "scientific" {
			sci = v
		} else {
			others = append(others, v)
		}
	}
	for _, o := range others {
		if sci >= o {
			t.Errorf("scientific RTI %.1f%% should be below every Unix-type proxy (found %.1f%%)", sci, o)
		}
	}
}

func TestScheduleOrderPenaltyPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("order experiment is slow")
	}
	tab, err := ScheduleOrder([]*workload.Workload{workload.ByName("eqntott")})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	pre, err := strconv.ParseInt(tab.Rows[0][1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	post, err := strconv.ParseInt(tab.Rows[0][2], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if post < pre {
		t.Errorf("scheduling after allocation beat the paper's order: %d < %d", post, pre)
	}
}

func TestRegionCapsMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("caps experiment is slow")
	}
	tab, err := RegionCaps([]*workload.Workload{workload.ByName("li")})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	// Larger caps can only expose more scheduling opportunity.
	var prev float64 = -1e9
	for i := 1; i < len(tab.Rows[0]); i++ {
		v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[0][i], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev-1.0 { // allow heuristic noise
			t.Errorf("RTI dropped sharply with a larger cap: %v", tab.Rows[0])
		}
		prev = v
	}
}

func TestFigure8RealisticRuns(t *testing.T) {
	tab, err := Figure8Realistic(evalWorkloads(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "t",
		Header: []string{"a", "long-header"},
		Notes:  []string{"n1"},
	}
	tab.Add("x", "y")
	s := tab.String()
	for _, want := range []string{"t\n", "a", "long-header", "x", "y", "note: n1", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}
