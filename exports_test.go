package gsched_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// figure2Reg is the allowlist reason shared by paperex's register names.
const figure2Reg = "a register of the paper's Figure 2; the dataflow, pdg, rename, core and xform tests name it to check facts about the example"

// exportAllowlist names the exported identifiers of internal/ packages
// ("pkg.Name") that only tests outside their package use, each with the
// reason it stays exported and its users. The same-package types an
// entry's signature names need no entry of their own.
var exportAllowlist = map[string]string{
	"difftest.BruteCheckBlock": "the brute-force oracle internal/exact's property test checks the exact scheduler against",
	"eval.CompileBase":         "compiles a workload for BASE in the root benchmarks (bench_test.go)",
	"eval.CompileGlobal":       "compiles a workload with global scheduling in the root benchmarks (bench_test.go)",
	"eval.MinMaxCycles":        "the Figure 2 cycle counts BenchmarkMinMax reports (bench_test.go)",
	"ir.EqualPrograms":         "the program equality asm's canonical-form and round-trip tests assert",
	"ir.FPR":                   "builds float registers in the float tests of sim, opt and core",
	"paperex.CR6":              figure2Reg,
	"paperex.CR7":              figure2Reg,
	"paperex.RegA":             figure2Reg,
	"paperex.RegI":             figure2Reg,
	"paperex.RegMax":           figure2Reg,
	"paperex.RegMin":           figure2Reg,
	"paperex.RegN":             figure2Reg,
	"paperex.RegU":             figure2Reg,
	"paperex.RegV":             figure2Reg,
	"paperex.Speculation":      "the paper's speculation example the dataflow, core and cfg tests schedule",
	"serve.Load":               "drives a live cluster in cmd/gschedd's cluster test",
	"serve.MixedLoad":          "drives the real gschedd binary in cmd/gschedd's smoke test",
	"workload.ByName":          "picks one proxy in the root benchmarks and alloc budgets, and the eval and xform tests",
}

// TestEveryExportHasACaller fails when an exported top-level name of an
// internal/ package has no non-test reference outside its own package
// and is not in exportAllowlist, and when an allowlist entry is no
// longer needed. Callers are every non-test .go file in the tree,
// including the benchmark suite's module, cmd/ and examples/.
func TestEveryExportHasACaller(t *testing.T) {
	problems, err := exportGate(os.DirFS("."), exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestExportGateCatches runs the gate over a small tree: an export
// nothing calls and an allowlist entry for a name now in use are both
// reported; a type kept by a used function's signature, an unexported
// name and a test-only reference are not.
func TestExportGateCatches(t *testing.T) {
	tree := fstest.MapFS{
		"internal/a/a.go": {Data: []byte(`package a

type Result struct{ N int }

func Used() Result { return Result{} }
func Unused()      {}
func Listed()      {}
func local()       {}
`)},
		"internal/a/a_test.go": {Data: []byte("package a_test\n\nimport \"gsched/internal/a\"\n\nvar _ = a.Unused\n")},
		"cmd/user/main.go":     {Data: []byte("package main\n\nimport \"gsched/internal/a\"\n\nfunc main() { a.Used(); a.Listed() }\n")},
	}
	problems, err := exportGate(tree, map[string]string{"a.Listed": "a reason"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a.Unused: exported, but no non-test code outside its package uses it; delete or unexport it, or allowlist it with a reason",
		"a.Listed: allowlisted, but it has a non-test caller outside its package, is named by another entry, or no longer exists; drop the entry",
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Errorf("gate reported\n%s\nwant\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}

// exportGate scans the non-test .go files of fsys and returns one
// problem per unused export that allow does not name, then one per
// allow entry that is no longer needed.
func exportGate(fsys fs.FS, allow map[string]string) ([]string, error) {
	sc, err := scanExports(fsys)
	if err != nil {
		return nil, err
	}
	used := sc.closure(sc.refs)
	var seeds []string
	for name := range allow {
		seeds = append(seeds, sc.mentions[name]...)
	}
	implied := sc.closure(seeds)
	var problems, stale []string
	for _, name := range sc.exports {
		if !used[name] && allow[name] == "" && !implied[name] {
			problems = append(problems, name+": exported, but no non-test code outside its package uses it; delete or unexport it, or allowlist it with a reason")
		}
	}
	declared := make(map[string]bool, len(sc.exports))
	for _, name := range sc.exports {
		declared[name] = true
	}
	for name := range allow {
		if !declared[name] || used[name] || implied[name] {
			stale = append(stale, name+": allowlisted, but it has a non-test caller outside its package, is named by another entry, or no longer exists; drop the entry")
		}
	}
	sort.Strings(problems)
	sort.Strings(stale)
	return append(problems, stale...), nil
}

// exportScan is what scanExports finds. Names are "pkg.Name", pkg being
// the import path below gsched/internal/.
type exportScan struct {
	// exports lists the exported top-level funcs, types, vars and
	// consts of internal/ packages.
	exports []string
	// mentions maps an export to the exported same-package types its
	// signature, declared type, exported fields or exported methods
	// name: they are used whenever it is.
	mentions map[string][]string
	// refs lists every pkg.Name selector of an internal/ import in
	// non-test code, which is necessarily outside pkg.
	refs []string
}

// closure returns seeds plus everything they transitively mention.
func (sc *exportScan) closure(seeds []string) map[string]bool {
	seen := make(map[string]bool)
	work := append([]string(nil), seeds...)
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[name] {
			continue
		}
		seen[name] = true
		work = append(work, sc.mentions[name]...)
	}
	return seen
}

// scanExports parses the non-test .go files of fsys, skipping testdata
// and dot directories. The tree's import paths are "gsched/" plus the
// directory, which also holds for the benchmark suite's own module
// (gsched/cmd/bench/suite).
func scanExports(fsys fs.FS) (*exportScan, error) {
	sc := &exportScan{mentions: make(map[string][]string)}
	fset := token.NewFileSet()
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		sc.refs = append(sc.refs, internalRefs(f)...)
		if pkg, ok := strings.CutPrefix(path.Dir(p), "internal/"); ok {
			sc.collect(f, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// internalRefs returns "pkg.Name" for every selector pkg.Name in f whose
// pkg is an import of gsched/internal/pkg.
func internalRefs(f *ast.File) []string {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		p, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "gsched/internal/")
		if !ok {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	var refs []string
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
				refs = append(refs, imports[x.Name]+"."+sel.Sel.Name)
			}
		}
		return true
	})
	return refs
}

// collect records the exported top-level names f declares in pkg, and
// what each mentions.
func (sc *exportScan) collect(f *ast.File, pkg string) {
	mention := func(key string, nodes ...ast.Node) {
		for _, n := range nodes {
			if n == nil {
				continue
			}
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					return false // another package's name
				case *ast.Ident:
					if n.IsExported() {
						sc.mentions[key] = append(sc.mentions[key], pkg+"."+n.Name)
					}
				}
				return true
			})
		}
	}
	declare := func(name string) string {
		key := pkg + "." + name
		if ast.IsExported(name) {
			sc.exports = append(sc.exports, key)
		}
		return key
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				mention(declare(d.Name.Name), d.Type)
			} else if d.Name.IsExported() {
				mention(pkg+"."+receiverType(d.Recv.List[0].Type), d.Type)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					mention(declare(s.Name.Name), exposedTypes(s.Type)...)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						mention(declare(n.Name), s.Type)
					}
				}
			}
		}
	}
}

// receiverType returns the type name of a method receiver.
func receiverType(recv ast.Expr) string {
	for {
		switch r := recv.(type) {
		case *ast.StarExpr:
			recv = r.X
		case *ast.IndexExpr:
			recv = r.X
		case *ast.IndexListExpr:
			recv = r.X
		case *ast.Ident:
			return r.Name
		default:
			panic(fmt.Sprintf("unexpected receiver %T", recv))
		}
	}
}

// exposedTypes returns the parts of a type declaration a user of the
// type can reach: a struct's or interface's exported and embedded
// fields and methods, or the whole type otherwise.
func exposedTypes(typ ast.Expr) []ast.Node {
	var list *ast.FieldList
	switch t := typ.(type) {
	case *ast.StructType:
		list = t.Fields
	case *ast.InterfaceType:
		list = t.Methods
	default:
		return []ast.Node{typ}
	}
	var out []ast.Node
	for _, fld := range list.List {
		exposed := len(fld.Names) == 0
		for _, n := range fld.Names {
			exposed = exposed || n.IsExported()
		}
		if exposed {
			out = append(out, fld.Type)
		}
	}
	return out
}
