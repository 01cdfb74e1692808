package analyzer

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest in miniature: each
// fixture package under testdata/src carries `// want "regex"` comments
// on the lines where a diagnostic is expected; the test fails on any
// unmatched expectation and on any unexpected diagnostic. Fixture-local
// imports (the mpi, sim and simnet stubs) resolve to sibling directories under
// testdata/src, everything else to the standard library.

type fixtureLoader struct {
	t     *testing.T
	root  string
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*Package
}

func newFixtureLoader(t *testing.T) *fixtureLoader {
	fset := token.NewFileSet()
	return &fixtureLoader{
		t:     t,
		root:  filepath.Join("testdata", "src"),
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		cache: map[string]*Package{},
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (l *fixtureLoader) load(path string) *Package {
	if p, ok := l.cache[path]; ok {
		return p
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatalf("fixture %s: %v", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			l.t.Fatalf("fixture %s: %v", path, err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{
		Importer: importerFunc(func(ipath string) (*types.Package, error) {
			if st, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(ipath))); err == nil && st.IsDir() {
				return l.load(ipath).Types, nil
			}
			return l.std.Import(ipath)
		}),
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		l.t.Fatalf("type-checking fixture %s: %v", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.cache[path] = p
	return p
}

// wantPattern extracts the quoted regexes of a want comment; both Go
// string syntaxes are accepted: `...` and "...".
var wantPattern = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

func collectWants(t *testing.T, fset *token.FileSet, pkgs []*Package) []*expectation {
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := fset.Position(c.Pos())
					for _, m := range wantPattern.FindAllStringSubmatch(text[len("want "):], -1) {
						raw := m[1]
						if raw == "" {
							raw = m[2]
						}
						re, err := regexp.Compile(raw)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
					}
				}
			}
		}
	}
	return wants
}

// runFixtureTest loads the given fixture packages, runs one analyzer
// over them, and reconciles diagnostics against want comments.
func runFixtureTest(t *testing.T, a *Analyzer, paths ...string) {
	t.Helper()
	runFixtureAnalyzers(t, []*Analyzer{a}, paths...)
}

// runFixtureAnalyzers is runFixtureTest for a set of analyzers run
// together (the suppression fixtures need two analyzers reporting on
// the same line).
func runFixtureAnalyzers(t *testing.T, analyzers []*Analyzer, paths ...string) {
	t.Helper()
	l := newFixtureLoader(t)
	var pkgs []*Package
	for _, p := range paths {
		pkgs = append(pkgs, l.load(p))
	}
	diags, err := Run(pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, l.fset, pkgs)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

func TestWallClockFixtures(t *testing.T) {
	runFixtureTest(t, WallClock, "wallclock/internal/sim", "wallclock/tools",
		"wallclock/internal/probe", "wallclock/internal/probe/export",
		"wallclock/internal/metrics", "wallclock/internal/metrics/export")
}

func TestKernelShareFixtures(t *testing.T) {
	runFixtureTest(t, KernelShare, "kernelshare")
}

func TestMapOrderFixtures(t *testing.T) {
	runFixtureTest(t, MapOrder, "maporder/internal/fcoll", "maporder/internal/sim",
		"maporder/internal/probe", "maporder/internal/metrics", "maporder/tools")
}

func TestSimTimeFixtures(t *testing.T) {
	runFixtureTest(t, SimTime, "simtime/internal/fcoll")
}

func TestMemoSafeFixtures(t *testing.T) {
	runFixtureTest(t, MemoSafe, "memosafe")
}

// TestTreeIsClean is the self-check the verify pipeline leans on: the
// full suite over the real module must report nothing. Any true positive
// must be fixed (or the analyzer refined), never waived.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check is slow; skipped with -short")
	}
	pkgs, err := Load("", []string{"collio/..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("collvet diagnostic on clean tree: %s", d)
	}
}
