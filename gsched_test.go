package gsched_test

import (
	"context"
	"strings"
	"testing"

	"gsched"
)

// TestPublicAPIEndToEnd walks the documented path: mini-C in, scheduled
// program out, simulated run, same result at every level.
func TestPublicAPIEndToEnd(t *testing.T) {
	const src = `
int a[16] = {3, 1, 4, 1, 5, 9, 2, 6};
int sum(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if (a[i] > 2) s += a[i];
        else s -= a[i];
    }
    return s;
}`
	want := int64(3 + 4 + 5 + 9 + 6 - 1 - 1 - 2)
	for _, level := range []gsched.Level{gsched.LevelNone, gsched.LevelUseful, gsched.LevelSpeculative} {
		prog, err := gsched.CompileC(src)
		if err != nil {
			t.Fatalf("CompileC: %v", err)
		}
		st, err := gsched.SchedulePipeline(prog, gsched.Defaults(gsched.RS6K(), level), gsched.DefaultPipeline())
		if err != nil {
			t.Fatalf("SchedulePipeline: %v", err)
		}
		if level > gsched.LevelNone && st.RegionsScheduled == 0 {
			t.Errorf("level %v: no regions scheduled", level)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("level %v: invalid ir after pipeline: %v", level, err)
		}
		res, err := gsched.Run(prog, "sum", []int64{8}, nil,
			gsched.RunOptions{Machine: gsched.RS6K(), ForgivingLoads: true})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.Ret != want {
			t.Errorf("level %v: sum = %d, want %d", level, res.Ret, want)
		}
	}
}

func TestPublicAsmRoundTrip(t *testing.T) {
	const src = `data g 4 = 10 20
func main:
	LI r0=0
	L r1=g(r0,0)
	L r2=g(r0,4)
	A r3=r1,r2
	RET r3
`
	prog, err := gsched.ParseAsm(src)
	if err != nil {
		t.Fatalf("ParseAsm: %v", err)
	}
	out := gsched.PrintAsm(prog)
	if !strings.Contains(out, "A r3=r1,r2") {
		t.Errorf("PrintAsm lost instructions:\n%s", out)
	}
	res, err := gsched.Run(prog, "main", nil, nil, gsched.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Ret != 30 {
		t.Errorf("ret = %d, want 30", res.Ret)
	}
}

func TestScheduleWithoutPipeline(t *testing.T) {
	prog, err := gsched.CompileC(`int f(int a) { if (a > 0) return a * 2; return a - 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gsched.Schedule(prog, gsched.Defaults(gsched.RS6K(), gsched.LevelSpeculative)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ in, want int64 }{{5, 10}, {-3, -4}, {0, -1}} {
		res, err := gsched.Run(prog, "f", []int64{tc.in}, nil, gsched.RunOptions{ForgivingLoads: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != tc.want {
			t.Errorf("f(%d) = %d, want %d", tc.in, res.Ret, tc.want)
		}
	}
}

// TestMissingMachineIsAnError: options without a machine description
// are rejected with an error, never a panic, on every public entry
// point that schedules, with and without the §6 pipeline.
func TestMissingMachineIsAnError(t *testing.T) {
	const src = `int f(int a) { if (a > 0) return a * 2; return a - 1; }`
	opts := gsched.Defaults(nil, gsched.LevelSpeculative)
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Schedule", func() error {
			prog, err := gsched.CompileC(src)
			if err != nil {
				t.Fatal(err)
			}
			_, err = gsched.Schedule(prog, opts)
			return err
		}},
		{"SchedulePipeline", func() error {
			prog, err := gsched.CompileC(src)
			if err != nil {
				t.Fatal(err)
			}
			_, err = gsched.SchedulePipeline(prog, opts, gsched.DefaultPipeline())
			return err
		}},
		{"ScheduleStream", func() error {
			_, err := gsched.ScheduleStream(context.Background(), "c", src, gsched.StreamConfig{Opts: opts}, nil)
			return err
		}},
		{"ScheduleStream/pipeline", func() error {
			cfg := gsched.StreamConfig{Opts: opts, Pipeline: gsched.DefaultPipeline(), UsePipeline: true}
			_, err := gsched.ScheduleStream(context.Background(), "c", src, cfg, nil)
			return err
		}},
	} {
		err := func() (err error) {
			defer func() {
				if v := recover(); v != nil {
					t.Errorf("%s panicked: %v", tc.name, v)
				}
			}()
			return tc.run()
		}()
		if err == nil || !strings.Contains(err.Error(), "Machine is required") {
			t.Errorf("%s: err = %v, want the missing-machine error", tc.name, err)
		}
	}
}

func TestMachinePresets(t *testing.T) {
	if gsched.RS6K().NumUnits[0] != 1 {
		t.Error("RS6K should have one fixed point unit")
	}
	wide := gsched.Superscalar(4, 2)
	if wide.NumUnits[0] != 4 {
		t.Error("Superscalar width wrong")
	}
}

func TestFacadeOptimizeAllocateProfile(t *testing.T) {
	prog, err := gsched.CompileC(`
int g[8] = {1, 2, 3};
int f(int a) {
    int dead = a * 99;
    int x = a;
    if (x > 0) return g[1] + x;
    return g[2] - x;
}`)
	if err != nil {
		t.Fatal(err)
	}
	ost := gsched.Optimize(prog)
	if ost.InstrsRemoved == 0 {
		t.Error("Optimize removed nothing (the dead multiply should go)")
	}
	if _, err := gsched.SchedulePipeline(prog, gsched.Defaults(gsched.RS6K(), gsched.LevelSpeculative), gsched.DefaultPipeline()); err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("invalid ir after pipeline: %v", err)
	}
	ast, err := gsched.Allocate(prog, gsched.RS6KRegs())
	if err != nil {
		t.Fatal(err)
	}
	if ast.UsedGPRs == 0 || ast.UsedGPRs > 32 {
		t.Errorf("allocation used %d GPRs", ast.UsedGPRs)
	}
	prof := gsched.NewProfile()
	res, err := gsched.Run(prog, "f", []int64{5}, nil,
		gsched.RunOptions{Machine: gsched.RS6K(), ForgivingLoads: true, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 2+5 {
		t.Errorf("f(5) = %d, want 7", res.Ret)
	}
	if len(prof.Edges) == 0 {
		t.Error("profile collected nothing")
	}
}
