package main

import (
	"flag"
	"go/parser"
	"go/token"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFastFigures exercises the cheap figure paths end to end (the
// heavier ones are covered by internal/eval's tests and the benchmarks).
func TestFastFigures(t *testing.T) {
	for _, fig := range []string{"256", "3", "4", "5", "6", "counter"} {
		if err := run(fig); err != nil {
			t.Errorf("run(%q): %v", fig, err)
		}
	}
}

func TestUnknownFigureIsAnError(t *testing.T) {
	err := run("zzz")
	if err == nil {
		t.Fatal("run(zzz) = nil, want an error")
	}
	for _, f := range figures {
		if !strings.Contains(err.Error(), f.name) {
			t.Errorf("error %q does not list figure %q", err, f.name)
		}
	}
}

// TestFigureNamesDocumented pins the -fig help and the package comment
// to exactly the names in figures, each once.
func TestFigureNamesDocumented(t *testing.T) {
	var want []string
	for _, f := range figures {
		if slices.Contains(want, f.name) {
			t.Errorf("figure %q listed twice", f.name)
		}
		want = append(want, f.name)
	}
	want = append([]string{"all"}, want...)

	if got := flag.Lookup("fig").Usage; !strings.HasSuffix(got, ": "+strings.Join(want, ", ")) {
		t.Errorf("-fig usage %q does not list exactly %v", got, want)
	}

	var documented []string
	for _, m := range regexp.MustCompile(`(?m)^//\texperiments -fig (\S+)`).FindAllStringSubmatch(packageDoc(t), -1) {
		documented = append(documented, m[1])
	}
	if !slices.Equal(documented, want) {
		t.Errorf("package comment lists %v, want %v", documented, want)
	}
}

// packageDoc returns main.go's package comment, comment markers kept.
func packageDoc(t *testing.T) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, c := range f.Doc.List {
		sb.WriteString(c.Text + "\n")
	}
	return sb.String()
}
