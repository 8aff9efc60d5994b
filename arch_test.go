package tss

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The design rules of the repository, as three tables. A rule is one
// row: adding a rule means adding a row. Paths are slash-separated and
// relative to the repository root; a directory covers everything below
// it, and a file may narrow to one function as "file.go:Recv.Func".

// buildRules constrain the import graph and the serving binary.
var buildRules = []buildRule{
	{"one-benchmark", noFile, "BENCH_*.json", ""},
	{"one-benchmark", reaches, "./cmd/tssbench", `^repro/internal/serve$`},
	{"one-benchmark", reaches, "./cmd/tssbench", `^repro/internal/cluster$`},
	{"one-benchmark", reaches, "./cmd/tssbench", `^net/http$`},
	{"oracles-are-test-code", reaches, "./cmd/tssserve", `^repro/internal/oracle$`},
	{"oracles-are-test-code", importsOnly, "./internal/oracle", `^repro/internal/(core|poset)$`},
	{"serving-binary-links-no-baseline", links, "./cmd/tssserve", ` T repro/internal/core\.BBSPlus$`},
	{"serving-binary-links-no-baseline", links, "./cmd/tssserve", ` T repro/internal/core\.SDC$`},
	{"serving-binary-links-no-baseline", links, "./cmd/tssserve", ` T repro/internal/core\.SDCPlus$`},
	{"serving-binary-links-no-baseline", links, "./cmd/tssserve", ` T repro/internal/core\.runSDCPlus$`},
}

// placementRules say where code that exists may be used.
var placementRules = []codeRule{
	{rule: "one-serving-checker", kind: matchName, pat: `UseMemTree`,
		except: []string{"internal/core", "internal/exp", "bench"}},
	{rule: "one-way-to-run-a-query", kind: matchName, pat: `PrepareDynamic`, in: queryPaths},
	{rule: "one-way-to-run-a-query", kind: matchName, pat: `NewDynamicDB`, in: queryPaths},
	{rule: "one-way-to-run-a-query", kind: matchName, pat: `QueryTSS`, in: queryPaths},
	{rule: "one-way-to-run-a-query", kind: matchName, pat: `PlanMode`, in: queryPaths},
	{rule: "coordinator-merges-on-kernel", kind: matchName, pat: `DominatesUnder`, in: []string{"internal/cluster"}},
	{rule: "cursor-checks-on-kernel", kind: matchCode, pat: `newListChecker\(`,
		except: []string{"internal/core/checker.go"}},
	{rule: "cursor-checks-on-kernel", kind: requireLine, pat: `^\s+return newKernelChecker\(`,
		in: []string{"internal/core/checker.go"}},
	{rule: "dpidp-partials-packed", kind: matchCode, pat: `map\[int32\]int64`, in: []string{"internal/cluster"}, tests: true},
	{rule: "rows-reach-wire-without-reflection", kind: matchName, pat: `RowValues`,
		in: []string{"internal/serve/serve.go", "internal/serve/stream.go", "internal/cluster"}},
	{rule: "rows-leave-wire-without-reflection", kind: matchCode, pat: `serve\.QueryResponse`, in: []string{"internal/cluster"}},
	{rule: "rows-leave-wire-without-reflection", kind: matchCode, pat: `\brec\.Row\b`, in: []string{"internal/cluster"}},
	{rule: "rows-leave-wire-without-reflection", kind: matchCode, pat: `serve\.RowSpec\{`, in: []string{"internal/cluster"}},
	{rule: "rows-leave-wire-without-reflection", kind: matchCode, pat: `var req serve\.DomCountRequest`, in: []string{"internal/cluster"}},
	{rule: "rows-leave-wire-without-reflection", kind: matchCode, pat: `json\.`,
		in: []string{"internal/serve/serve.go:Server.handleDomCount"}},
	{rule: "warm-topk-reads-prefix", kind: matchCode, pat: `sort\.Slice\(idx`, in: []string{"internal/plan", "internal/cluster"}},
	{rule: "warm-topk-reads-prefix", kind: matchCode, pat: `slices\.SortFunc\(all`, in: []string{"internal/plan", "internal/cluster"}},
	{rule: "etag-set-only-by-snapshot-tag", kind: matchString, pat: `(?i)"etag"`, in: []string{"internal/serve"},
		except: []string{"internal/serve/table.go:snapshot.tag"}},
}

// queryPaths is where the paper's dTSS and query modes stay out of.
var queryPaths = []string{"internal/serve", "internal/cluster", "internal/plan", "cmd", "tss.go"}

// tombstones are the names of deleted code, which must not come back.
var tombstones = []codeRule{
	{rule: "dtss-is-never-maintained", kind: matchName, pat: `InsertCOW`},
	{rule: "dtss-is-never-maintained", kind: matchName, pat: `DeleteCOW`},
	{rule: "dtss-is-never-maintained", kind: matchName, pat: `cowCtx`},
	{rule: "dtss-is-never-maintained", kind: matchName, pat: `stableOf`},
	{rule: "dtss-is-never-maintained", kind: matchCode, pat: `func \((\w+ )?\*DynamicDB\) ApplyBatch`},
	{rule: "one-read-route", kind: matchString, pat: `"GET /tables/\{name\}/skyline"`, in: []string{"internal", "cmd"}},
	{rule: "one-read-route", kind: matchCode, pat: `rest == "skyline"`, in: []string{"internal", "cmd"}},
	{rule: "one-read-route", kind: matchName, pat: `staticQuery`, in: []string{"internal", "cmd"}},
	{rule: "one-read-route", kind: matchName, pat: `NoMaintain`, in: []string{"internal", "cmd"}},
	{rule: "one-read-route", kind: matchName, pat: `SubspaceCacheCap`, in: []string{"internal", "cmd"}},
	{rule: "one-implementation-per-answer", kind: matchName, pat: `QueryTSSFull`},
	{rule: "one-implementation-per-answer", kind: matchName, pat: `SaLSa`},
	{rule: "one-implementation-per-answer", kind: matchString, pat: `"salsa"`},
	{rule: "one-implementation-per-answer", kind: matchName, pat: `boxMinDist`},
	{rule: "one-implementation-per-answer", kind: matchName, pat: `rootMBB`},
	{rule: "one-implementation-per-answer", kind: matchCode, pat: `^(var )?shard\s+\[?\]?int32`, in: []string{"internal/core/kernel.go"}},
	{rule: "one-implementation-per-answer", kind: matchCode, pat: `tagged bool`, in: []string{"internal/core/kernel.go"}},
	{rule: "dpidp-partials-packed", kind: matchName, pat: `RankHist`},
	{rule: "closure-po-one-row-load", kind: matchName, pat: `leqBuf`, in: []string{"internal/core/kernel.go"}},
	{rule: "closure-po-one-row-load", kind: matchName, pat: `geqBuf`, in: []string{"internal/core/kernel.go"}},
	{rule: "closure-po-one-row-load", kind: matchName, pat: `wordsIntersect`, in: []string{"internal/core/kernel.go"}},
	{rule: "no-plugin-registry", kind: matchCode, pat: `func Register\(`},
	{rule: "no-plugin-registry", kind: matchName, pat: `RegisterRanker`},
	{rule: "no-plugin-registry", kind: matchName, pat: `defaultPrior`},
	{rule: "no-plugin-registry", kind: matchName, pat: `LookupRanker`},
	{rule: "no-plugin-registry", kind: matchName, pat: `PartialScorer`},
	{rule: "no-plugin-registry", kind: matchName, pat: `WireScorer`},
	{rule: "no-plugin-registry", kind: matchName, pat: `UnionRanker`},
	{rule: "no-plugin-registry", kind: matchName, pat: `StreamBounder`},
	{rule: "no-plugin-registry", kind: matchName, pat: `IdealConsumer`},
	{rule: "no-plugin-registry", kind: matchName, pat: `WireContext`},
	{rule: "one-progressive-scan", kind: matchName, pat: `STSSIndex`},
	{rule: "one-progressive-scan", kind: matchName, pat: `NewSTSSCursor`, in: []string{"internal/plan", "internal/serve", "internal/cluster"}},
	{rule: "one-progressive-scan", kind: matchName, pat: `cursorOver`, in: []string{"internal/plan", "internal/serve", "internal/cluster"}},
	{rule: "one-serving-algorithm", kind: matchName, pat: `LESSWindow`, except: []string{"internal/store"}},
	{rule: "one-serving-algorithm", kind: matchName, pat: `CostMultiplier`, except: []string{"internal/store"}},
	{rule: "one-serving-algorithm", kind: matchName, pat: `ObserveCost`, except: []string{"internal/store"}},
	{rule: "one-serving-algorithm", kind: matchCode, pat: `costPriors\[`, except: []string{"internal/store"}},
	{rule: "one-serving-algorithm", kind: matchName, pat: `AlgoCost\b`, except: []string{"internal/store"}},
	{rule: "one-serving-algorithm", kind: matchCode, pat: `func LESS\(`, except: []string{"internal/store"}},
	{rule: "plans-estimate-nothing", kind: matchName, pat: `estimatedSeconds`, except: []string{"internal/store", "bench"}},
	{rule: "plans-estimate-nothing", kind: matchName, pat: `RankCoster`, except: []string{"internal/store", "bench"}},
	{rule: "plans-estimate-nothing", kind: matchName, pat: `ObserveSkyline`, except: []string{"internal/store", "bench"}},
	{rule: "plans-estimate-nothing", kind: matchName, pat: `SkylineFrac`, except: []string{"internal/store", "bench"}},
	{rule: "plans-estimate-nothing", kind: matchName, pat: `LearnedState`, except: []string{"internal/store", "bench"}},
	{rule: "plans-estimate-nothing", kind: matchName, pat: `ImportLearned`, except: []string{"internal/store", "bench"}},
	{rule: "plans-estimate-nothing", kind: matchName, pat: `CorrSign`, except: []string{"internal/store", "bench"}},
	{rule: "plans-estimate-nothing", kind: matchCode, pat: `selectivity\(`, except: []string{"internal/store", "bench"}},
	{rule: "rows-reach-wire-without-reflection", kind: matchCode, pat: `func skylineRows`},
	{rule: "rows-reach-wire-without-reflection", kind: matchName, pat: `streamRowRecord`},
	{rule: "warm-topk-reads-prefix", kind: matchName, pat: `indexScores`, in: []string{"internal/plan"}},
	{rule: "oracles-are-test-code", kind: matchName, pat: `OracleRank`},
	{rule: "oracles-are-test-code", kind: matchName, pat: `OracleContext`},
	{rule: "oracles-are-test-code", kind: matchCode, pat: `func Naive\(`},
	{rule: "oracles-are-test-code", kind: matchName, pat: `FullyDynamicNaive`},
	{rule: "oracles-are-test-code", kind: matchName, pat: `oracleRestrict`},
	{rule: "oracles-are-test-code", kind: matchName, pat: `decomposeOrdRange`},
	{rule: "oracles-are-test-code", kind: matchCode, pat: `func HeadlineShapes`},
}

// TestDesignRules checks the repository against the three tables, then
// checks that each kind of rule reports a violation planted in a small
// fixture module.
func TestDesignRules(t *testing.T) {
	codeRules := append(slices.Clone(placementRules), tombstones...)
	for _, v := range designViolations(t, ".", buildRules, codeRules) {
		t.Error(v)
	}

	t.Run("planted", func(t *testing.T) {
		dir := t.TempDir()
		for file, src := range plantedFixture {
			path := filepath.Join(dir, filepath.FromSlash(file))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var build []buildRule
		for _, r := range buildRules {
			if r.kind != links {
				build = append(build, r)
			}
		}
		got := map[string]bool{}
		for _, v := range designViolations(t, dir, build, codeRules) {
			got[v.file+" "+v.rule+" "+v.pat] = true
		}
		for _, w := range []string{
			"internal/serve/serve.go oracles-are-test-code ^repro/internal/oracle$",
			`internal/plan/exec.go cursor-checks-on-kernel newListChecker\(`,
			"internal/serve/serve.go one-serving-checker UseMemTree",
			"internal/core/salsa.go one-implementation-per-answer SaLSa",
			`internal/plan/names.go one-implementation-per-answer "salsa"`,
			`internal/core/checker.go cursor-checks-on-kernel ^\s+return newKernelChecker\(`,
		} {
			if !got[w] {
				t.Errorf("planted violation not reported: %s", w)
			}
			delete(got, w)
		}
		for g := range got {
			t.Errorf("unplanted violation reported: %s", g)
		}
	})
}

// plantedFixture is a module named like this one with one violation per
// rule kind; the names in its comment and test file are not code.
var plantedFixture = map[string]string{
	"go.mod":                      "module repro\n\ngo 1.24\n",
	"cmd/tssserve/main.go":        "package main\n\nimport _ \"repro/internal/serve\"\n\nfunc main() {}\n",
	"cmd/tssbench/main.go":        "package main\n\nfunc main() {}\n",
	"internal/oracle/oracle.go":   "package oracle\n",
	"internal/serve/serve.go":     "package serve\n\nimport _ \"repro/internal/oracle\"\n\nvar UseMemTree bool\n",
	"internal/core/checker.go":    "package core\n\nfunc newListChecker() int { return 0 }\n\nfunc pick() int {\n\treturn newListChecker()\n}\n",
	"internal/core/salsa.go":      "package core\n\n// SaLSa is not code here.\nfunc SaLSa() {}\n",
	"internal/core/salsa_test.go": "package core\n\nfunc salsaOracle() { SaLSa() }\n",
	"internal/plan/exec.go":       "package plan\n\nfunc newListChecker() int { return 0 }\n\nvar checker = newListChecker()\n",
	"internal/plan/names.go":      "package plan\n\nconst algo = \"salsa\"\n",
}

type buildKind int

const (
	noFile      buildKind = iota // no file matches pkg
	reaches                      // no package pkg depends on matches pat
	importsOnly                  // pkg imports from its own module only packages matching pat
	links                        // `go tool nm` of the pkg binary prints no line matching pat
)

type buildRule struct {
	rule string
	kind buildKind
	pkg  string // a package pattern; for noFile, a glob under the root
	pat  string // a regexp of import paths or of `go tool nm` lines
}

type nodeKind int

const (
	matchName   nodeKind = iota // an identifier, or the contents of a string literal
	matchString                 // a string literal as written, quotes included
	matchCode                   // an expression, a func header, or a field or var declaration, printed
	requireLine                 // a source line, which one file under in must contain
)

// A codeRule forbids pat in the non-test Go files (test files too if
// tests) under in, every file when in is empty, except under except.
type codeRule struct {
	rule   string
	kind   nodeKind
	pat    string
	in     []string
	except []string
	tests  bool
}

type violation struct {
	file, rule, pat, what string
	line                  int
}

func (v violation) String() string {
	at := v.file
	if v.line > 0 {
		at += ":" + strconv.Itoa(v.line)
	}
	return fmt.Sprintf("%s: %s: %s (%s)", at, v.rule, v.pat, v.what)
}

// covered reports whether function fn of file lies in one of the
// scopes; fn "*" stands for any function of the file.
func covered(scopes []string, file, fn string) bool {
	for _, s := range scopes {
		path, f, _ := strings.Cut(s, ":")
		if (file == path || strings.HasPrefix(file, path+"/")) && (f == "" || fn == "*" || f == fn) {
			return true
		}
	}
	return false
}

func (r codeRule) applies(file, fn string) bool {
	return (len(r.in) == 0 || covered(r.in, file, fn)) && !covered(r.except, file, fn)
}

// goCmd runs the go command in dir; go test puts its own go command
// first on the test's PATH.
func goCmd(t *testing.T, dir string, args ...string) []byte {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// designViolations checks the module at root against the rules.
func designViolations(t *testing.T, root string, build []buildRule, rules []codeRule) []violation {
	out := buildViolations(t, root, build)
	files := goFiles(t, root)
	res := map[string]*regexp.Regexp{}
	for _, r := range rules {
		res[r.pat] = regexp.MustCompile(r.pat)
	}
	for _, r := range rules {
		if r.kind != requireLine {
			continue
		}
		if !slices.ContainsFunc(files, func(f goFile) bool {
			return !f.test && r.applies(f.path, "") && slices.ContainsFunc(strings.Split(string(f.src), "\n"), res[r.pat].MatchString)
		}) {
			out = append(out, violation{file: r.in[0], rule: r.rule, pat: r.pat, what: "required line missing"})
		}
	}
	for _, f := range files {
		out = append(out, f.violations(t, rules, res)...)
	}
	return out
}

type goFile struct {
	path string // slash-separated, relative to the root
	src  []byte
	test bool
}

// goFiles reads every Go file below root, as grep -r would.
func goFiles(t *testing.T, root string) []goFile {
	var files []goFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		files = append(files, goFile{filepath.ToSlash(rel), src, strings.HasSuffix(path, "_test.go")})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// violations walks f's syntax tree once, matching each node's text
// against the rules of its kind that cover the node's function.
func (f goFile) violations(t *testing.T, rules []codeRule, res map[string]*regexp.Regexp) []violation {
	var mine []codeRule
	for _, r := range rules {
		if r.kind != requireLine && (!f.test || r.tests) && (len(r.in) == 0 || covered(r.in, f.path, "*")) {
			mine = append(mine, r)
		}
	}
	if len(mine) == 0 {
		return nil
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, f.path, f.src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("design rules: %v", err)
	}
	var out []violation
	type at struct {
		line int
		pat  string
	}
	seen := map[at]bool{}
	check := func(fn string, kind nodeKind, pos token.Pos, text string) {
		for _, r := range mine {
			if r.kind == kind && res[r.pat].MatchString(text) && r.applies(f.path, fn) {
				v := violation{file: f.path, line: fset.Position(pos).Line, rule: r.rule, pat: r.pat, what: text}
				if !seen[at{v.line, r.pat}] {
					seen[at{v.line, r.pat}] = true
					out = append(out, v)
				}
			}
		}
	}
	for _, decl := range file.Decls {
		fn := funcName(decl)
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				check(fn, matchName, n.Pos(), n.Name)
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					check(fn, matchString, n.Pos(), n.Value)
					if s, err := strconv.Unquote(n.Value); err == nil {
						check(fn, matchName, n.Pos(), s)
					}
				}
			case *ast.CallExpr, *ast.SelectorExpr, *ast.BinaryExpr, *ast.CompositeLit, *ast.IndexExpr, *ast.MapType:
				check(fn, matchCode, n.Pos(), types.ExprString(n.(ast.Expr)))
			case *ast.FuncDecl:
				check(fn, matchCode, n.Pos(), funcHeader(n))
			case *ast.Field:
				check(fn, matchCode, n.Pos(), declText(n.Names, n.Type))
			case *ast.GenDecl:
				for _, s := range n.Specs {
					if vs, ok := s.(*ast.ValueSpec); ok {
						check(fn, matchCode, vs.Pos(), n.Tok.String()+" "+declText(vs.Names, vs.Type))
					}
				}
			}
			return true
		})
	}
	return out
}

// funcName names a func declaration as "Recv.Func" (or "Func").
func funcName(decl ast.Decl) string {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	return types.ExprString(recv) + "." + fd.Name.Name
}

// funcHeader prints "func Name(" or "func (r *T) Name(".
func funcHeader(fd *ast.FuncDecl) string {
	recv := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		recv = "(" + declText(fd.Recv.List[0].Names, fd.Recv.List[0].Type) + ") "
	}
	return "func " + recv + fd.Name.Name + "("
}

// declText prints "a, b T", "a T" or "T".
func declText(names []*ast.Ident, typ ast.Expr) string {
	var parts []string
	for _, n := range names {
		parts = append(parts, n.Name)
	}
	s := strings.Join(parts, ", ")
	if typ != nil {
		if s != "" {
			s += " "
		}
		s += types.ExprString(typ)
	}
	return s
}

// buildViolations checks the build rules with the go command.
func buildViolations(t *testing.T, root string, rules []buildRule) []violation {
	var out []violation
	listed := map[string][]listedPkg{}
	bins := map[string][]byte{}
	for _, r := range rules {
		re := regexp.MustCompile(r.pat)
		switch r.kind {
		case noFile:
			matches, err := filepath.Glob(filepath.Join(root, r.pkg))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range matches {
				out = append(out, violation{file: filepath.Base(m), rule: r.rule, pat: r.pkg, what: "file exists"})
			}
		case reaches, importsOnly:
			pkgs, ok := listed[r.pkg]
			if !ok {
				pkgs = goList(t, root, r.pkg)
				listed[r.pkg] = pkgs
			}
			if r.kind == importsOnly {
				pkgs = pkgs[len(pkgs)-1:] // go list -deps prints pkg last
			}
			for _, p := range pkgs {
				for _, imp := range p.imports {
					inModule := imp == p.module || strings.HasPrefix(imp, p.module+"/")
					if r.kind == reaches && re.MatchString(imp) || r.kind == importsOnly && inModule && !re.MatchString(imp) {
						file, line := p.importer(t, imp)
						out = append(out, violation{file: file, line: line, rule: r.rule, pat: r.pat,
							what: p.path + " imports " + imp})
					}
				}
			}
		case links:
			syms, ok := bins[r.pkg]
			if !ok {
				bin := filepath.Join(t.TempDir(), "bin")
				goCmd(t, root, "build", "-o", bin, r.pkg)
				syms = goCmd(t, root, "tool", "nm", bin)
				bins[r.pkg] = syms
			}
			for _, line := range strings.Split(string(syms), "\n") {
				if re.MatchString(line) {
					out = append(out, violation{file: strings.TrimPrefix(r.pkg, "./"), rule: r.rule, pat: r.pat,
						what: "links " + strings.TrimSpace(line)})
				}
			}
		}
	}
	return out
}

type listedPkg struct {
	path, dir, module string
	files, imports    []string
}

// goList lists pkg and every package it depends on, pkg last.
func goList(t *testing.T, root, pkg string) []listedPkg {
	const format = "{{.ImportPath}}\t{{.Dir}}\t{{with .Module}}{{.Path}}{{end}}\t" +
		"{{join .GoFiles \" \"}}\t{{join .Imports \" \"}}"
	var pkgs []listedPkg
	out := strings.TrimSuffix(string(goCmd(t, root, "list", "-deps", "-f", format, pkg)), "\n")
	for _, line := range strings.Split(out, "\n") {
		f := strings.Split(line, "\t")
		pkgs = append(pkgs, listedPkg{f[0], f[1], f[2], strings.Fields(f[3]), strings.Fields(f[4])})
	}
	return pkgs
}

// importer names the file of p that imports dep, by its path in p's
// module, and the line.
func (p listedPkg) importer(t *testing.T, dep string) (string, int) {
	for _, name := range p.files {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == strconv.Quote(dep) {
				return path.Join(strings.TrimPrefix(strings.TrimPrefix(p.path, p.module), "/"), name), fset.Position(imp.Pos()).Line
			}
		}
	}
	return p.path, 0
}
