package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gsched"
)

// TestMain runs the command's main instead of the tests when
// GSCHED_MAIN_ARGS holds its arguments (newline-separated), so a test
// can observe the exit status and stderr of a real run.
func TestMain(m *testing.M) {
	if args := os.Getenv("GSCHED_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"gsched"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDuplicateFunctionExitsOne: a unit that defines a function twice
// makes gsched exit 1 with the line-numbered diagnostic, on the
// streaming path and on the whole-unit path that -run takes.
func TestDuplicateFunctionExitsOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.s")
	src := "func f:\n\tRET r0\nfunc f:\n\tRET r1\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-print", path}, {"-run", "f", path}} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "GSCHED_MAIN_ARGS="+strings.Join(args, "\n"))
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err = %v, want exit status 1", args, err)
		}
		if want := `gsched: asm: line 3: function "f" redeclared`; !strings.Contains(stderr.String(), want) {
			t.Errorf("%v: stderr %q does not contain %q", args, stderr.String(), want)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]gsched.Level{
		"none":        gsched.LevelNone,
		"useful":      gsched.LevelUseful,
		"speculative": gsched.LevelSpeculative,
	} {
		got, err := parseLevel(s)
		if err != nil || got != want {
			t.Errorf("parseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseLevel("bogus"); err == nil {
		t.Error("bogus level accepted")
	}
}

func TestParseMachine(t *testing.T) {
	m, err := parseMachine("rs6k")
	if err != nil || m.NumUnits[0] != 1 {
		t.Errorf("rs6k: %v, %v", m, err)
	}
	m, err = parseMachine("4x2")
	if err != nil || m.NumUnits[0] != 4 {
		t.Errorf("4x2: %v, %v", m, err)
	}
	for _, bad := range []string{"", "x", "0x1", "axb", "3"} {
		if _, err := parseMachine(bad); err == nil {
			t.Errorf("parseMachine(%q) accepted", bad)
		}
	}
}

func TestRealMainCompilesAndRuns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.c")
	src := `int f(int a) { return a * 7; }`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Exercise realMain with flags set directly.
	*level = "speculative"
	*machineF = "rs6k"
	*pipeline = true
	*printAsm = false
	*run = "f"
	*argsF = "6"
	*stats = false
	*lang = ""
	*dot = ""
	*trace = 0
	if err := realMain(path); err != nil {
		t.Fatalf("realMain: %v", err)
	}
}

func TestRealMainRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.c")
	if err := os.WriteFile(path, []byte("int f( {"), 0o644); err != nil {
		t.Fatal(err)
	}
	*run = ""
	*dot = ""
	if err := realMain(path); err == nil {
		t.Error("broken source accepted")
	}
	if err := realMain(filepath.Join(dir, "missing.c")); err == nil {
		t.Error("missing file accepted")
	}
}
