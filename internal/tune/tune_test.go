package tune

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"gsched/internal/machine"
	"gsched/internal/policy"
	"gsched/internal/workload"
)

// tiny returns a small branchy workload so tuner tests pay pipeline
// costs measured in milliseconds, not the full four-proxy sweep.
func tiny() *workload.Workload {
	return &workload.Workload{
		Name:  "tiny",
		Entry: "main",
		Args:  []int64{48},
		Source: `
int a[64];
int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int x = a[i] * 3 + i;
        if (x > 50) { s = s + x; } else { s = s - i; }
        a[i] = s;
    }
    return s;
}
`,
	}
}

func run(t *testing.T, cfg searchConfig) *searchResult {
	t.Helper()
	res, err := search(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunDeterministic(t *testing.T) {
	cfg := searchConfig{Seed: 5, Iters: 6, Mode: modeBoth, Workloads: []*workload.Workload{tiny()}}
	a, _ := json.Marshal(run(t, cfg))
	b, _ := json.Marshal(run(t, cfg))
	if string(a) != string(b) {
		t.Errorf("equal configs gave different results:\n%s\n%s", a, b)
	}
}

func TestRunPolicyMode(t *testing.T) {
	res := run(t, searchConfig{Seed: 3, Iters: 8, Mode: modePolicy, Workloads: []*workload.Workload{tiny()}})
	if res.Evaluated != 8 {
		t.Errorf("Evaluated = %d, want 8", res.Evaluated)
	}
	if res.BestCycles > res.BaselineCycles {
		t.Errorf("best %d worse than baseline %d: search must only adopt improvements",
			res.BestCycles, res.BaselineCycles)
	}
	if res.Machine.Name != "rs6k" {
		t.Errorf("policy mode moved the machine: %s", res.Machine.Name)
	}
	if res.Policy != "" {
		if _, err := policy.Parse(res.Policy); err != nil {
			t.Errorf("winning policy does not parse: %v", err)
		}
	}
	if len(res.Workloads) != 1 || res.Workloads[0].Workload != "tiny" {
		t.Errorf("per-workload scores = %+v", res.Workloads)
	}
}

func TestRunMachineMode(t *testing.T) {
	res := run(t, searchConfig{Seed: 9, Iters: 8, Mode: modeMachine, Workloads: []*workload.Workload{tiny()}})
	if res.Policy != "" {
		t.Errorf("machine mode produced a policy: %q", res.Policy)
	}
	if err := res.Machine.Validate(); err != nil {
		t.Errorf("winning machine invalid: %v", err)
	}
	if res.BestCycles > res.BaselineCycles {
		t.Errorf("best %d worse than baseline %d", res.BestCycles, res.BaselineCycles)
	}
}

func TestBadMode(t *testing.T) {
	if _, err := search(context.Background(), searchConfig{Mode: "banana"}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := search(ctx, searchConfig{Workloads: []*workload.Workload{tiny()}}); err == nil {
		t.Error("cancelled run returned no error")
	}
}

func TestWeightedPolicySpace(t *testing.T) {
	w := make([]float64, policy.NumWeights())
	if _, err := policy.Weighted(w); err != nil {
		t.Errorf("all-zero weights rejected: %v", err)
	}
	if _, err := policy.Weighted(w[:1]); err == nil {
		t.Error("short weight vector accepted")
	}
	// The mutated machine stays inside the validated space.
	r := machine.RS6K()
	for seed := int64(0); seed < 8; seed++ {
		cfg := searchConfig{Seed: seed + 100, Iters: 2, Mode: modeMachine,
			Machine: r, Workloads: []*workload.Workload{tiny()}}
		res := run(t, cfg)
		if err := res.Machine.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestTableRowsAreRuns pins Table's row for a workload to what search
// returns with the same seed, mode and iterations.
func TestTableRowsAreRuns(t *testing.T) {
	tb, err := Table(context.Background(), []*workload.Workload{tiny()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, searchConfig{Seed: 1, Iters: 4, Mode: modeBoth, Workloads: []*workload.Workload{tiny()}})
	want := []string{"tiny", fmt.Sprint(res.BaselineCycles), fmt.Sprint(res.BestCycles), fmt.Sprintf("%.1f%%", res.ImprovedPct)}
	if len(tb.Rows) != 1 || !slices.Equal(tb.Rows[0], want) {
		t.Errorf("rows %q, want [%q]", tb.Rows, want)
	}
}
