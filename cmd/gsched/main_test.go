package main

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gsched/internal/serve"
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

// TestNameParity: the CLI and gschedd accept the same level, machine and
// language names. The empty name is left out: it means each entry
// point's own default.
func TestNameParity(t *testing.T) {
	const cSrc, asmSrc = "int main(int a) { return a + 1; }", "func main r1:\n\tAI r3=r1,1\n\tRET r3\n"
	cases := []struct {
		field, name string
		ok          bool
	}{
		{"level", "none", true},
		{"level", "useful", true},
		{"level", "speculative", true},
		{"level", "dup", true},
		{"level", "optimal", true},
		{"level", "bogus", false},
		{"level", "Speculative", false},
		{"level", "level?", false},
		{"machine", "rs6k", true},
		{"machine", "scalar", true},
		{"machine", "wide", true},
		{"machine", "4x2", true},
		{"machine", "1x1", true},
		{"machine", "RS6K", false},
		{"machine", "ss4x2", false},
		{"machine", "x", false},
		{"machine", "0x1", false},
		{"machine", "axb", false},
		{"machine", "3", false},
		{"machine", "2x2x2", false},
		{"lang", "c", true},
		{"lang", "asm", true},
		{"lang", "s", true},
		{"lang", "C", false},
		{"lang", "go", false},
	}
	srv, err := serve.New(serve.Config{Workers: 1, CacheBytes: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dir := t.TempDir()
	*run, *dot, *printAsm, *stats = "", "", false, false
	defer func() { *level, *machineF, *lang = "speculative", "rs6k", "" }()
	for _, tc := range cases {
		src, req := cSrc, map[string]string{"lang": "c"}
		*level, *machineF, *lang = "speculative", "rs6k", "c"
		switch tc.field {
		case "level":
			*level, req["level"] = tc.name, tc.name
		case "machine":
			*machineF, req["machine"] = tc.name, tc.name
		case "lang":
			*lang, req["lang"] = tc.name, tc.name
			if tc.name != "c" {
				src = asmSrc
			}
		}
		path := filepath.Join(dir, "prog")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		cliErr := realMain(path)

		req["source"] = src
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", strings.NewReader(string(body))))
		served := rec.Code == http.StatusOK || rec.Code == http.StatusAccepted
		if (cliErr == nil) != tc.ok || served != tc.ok {
			t.Errorf("-%s %q: CLI error %v, gschedd %d %s; want accepted = %t",
				tc.field, tc.name, cliErr, rec.Code, strings.TrimSpace(rec.Body.String()), tc.ok)
		}
		if !tc.ok && rec.Code != http.StatusBadRequest {
			t.Errorf("-%s %q: gschedd answered %d, want 400", tc.field, tc.name, rec.Code)
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
