package obsguard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// check parses source snippets as one package and runs the analyzer.
func check(t *testing.T, srcs ...string) []Diagnostic {
	t.Helper()
	return checkIn(t, "", srcs...)
}

// checkIn is check with the snippets placed in directory dir.
func checkIn(t *testing.T, dir string, srcs ...string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	for i, src := range srcs {
		f, err := parser.ParseFile(fset, filepath.Join(dir, "src"+string(rune('a'+i))+".go"), src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return Check(fset, files)
}

const header = "package p\n\nfunc work() {}\n"

func TestDirectGuardShapes(t *testing.T) {
	clean := header + `
func a(s *Sink) {
	if s.Tracing() {
		s.Emit(ev())
	}
}
func b(s *Sink) {
	profiled := s.ProfEnabled()
	if profiled {
		s.ProfActivity(1, 2, 3)
	}
}
func c(s *Sink) {
	if !s.Tracing() {
		return
	}
	s.Emit(ev())
}
func d(s *Sink, disabled bool) {
	full := s.Enabled() || disabled
	if full {
		s.StartSpan("x", "", "", 0)
	}
}
func e(s *Sink) {
	if s.KeepsEvents() {
		sp := s.StartSpan("x", "", render(), 0)
		_ = sp
		s.Emit(ev())
	}
}
`
	if diags := check(t, clean); len(diags) != 0 {
		t.Errorf("clean shapes flagged: %+v", diags)
	}
}

// TestTracingTier: events and rendered span arguments belong to the tracing
// tier — an Enabled guard is not enough for them — while spans themselves
// and tally increments belong to the always-on one.
func TestTracingTier(t *testing.T) {
	clean := header + `
func a(s *Sink, st *Stats) {
	st.Fired++
	st.ByOp[2]++
	if s.Enabled() {
		rendered := ""
		if s.Tracing() {
			rendered = render()
		}
		sp := s.StartSpan("x", key(), rendered, 0)
		_ = sp
	}
}
func note(s *Sink) {
	s.Emit(ev())
}
func b(s *Sink) {
	if !s.Enabled() {
		return
	}
	work()
	if s.Tracing() {
		note(s)
	}
}
`
	if diags := check(t, clean); len(diags) != 0 {
		t.Errorf("clean tier shapes flagged: %+v", diags)
	}
	bad := header + `
func a(s *Sink) {
	if s.Enabled() {
		s.Emit(ev())
	}
}
func b(s *Sink) {
	if s.Enabled() {
		s.StartSpan("x", "", render(), 0)
	}
}
func note(s *Sink) {
	s.Emit(ev())
}
func c(s *Sink) {
	if s.ProfEnabled() {
		note(s)
	}
}
`
	diags := check(t, bad)
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %+v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Msg, "Tracing()") {
			t.Errorf("unexpected message %q", d.Msg)
		}
	}
}

func TestUnguardedEmitFlagged(t *testing.T) {
	bad := header + `
func a(s *Sink) {
	s.Emit(ev())
}
func b(s *Sink, cond bool) {
	if cond {
		s.ProfRank(nil)
	}
}
func c(s *Sink) {
	if !s.Enabled() {
		work() // does not exit: everything after is still unguarded
	}
	s.Emit(ev())
}
`
	diags := check(t, bad)
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %+v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Msg, "not dominated") {
			t.Errorf("unexpected message %q", d.Msg)
		}
	}
}

func TestHelperInheritsCallerGuards(t *testing.T) {
	// emitAll is unguarded internally, but its only call sites are guarded.
	clean := header + `
func emitAll(s *Sink) {
	s.Emit(ev())
	s.Emit(ev())
}
func a(s *Sink) {
	if s.Tracing() {
		emitAll(s)
	}
}
func b(s *Sink) {
	if !s.Tracing() {
		return
	}
	emitAll(s)
}
`
	if diags := check(t, clean); len(diags) != 0 {
		t.Errorf("guarded helper flagged: %+v", diags)
	}
	// One unguarded call site breaks the inheritance.
	bad := clean + `
func leak(s *Sink) {
	emitAll(s)
}
`
	if diags := check(t, bad); len(diags) != 2 {
		t.Errorf("helper with an unguarded caller: got %d diagnostics, want 2 (both emits): %+v", len(diags), diags)
	}
	// A helper nobody calls gets no benefit of the doubt.
	orphan := header + `
func emitAll(s *Sink) {
	s.Emit(ev())
}
`
	if diags := check(t, orphan); len(diags) != 1 {
		t.Errorf("orphan helper: got %d diagnostics, want 1: %+v", len(diags), diags)
	}
}

func TestRecursiveHelpersNotTrusted(t *testing.T) {
	src := header + `
func ping(s *Sink) {
	s.Emit(ev())
	pong(s)
}
func pong(s *Sink) {
	ping(s)
}
`
	if diags := check(t, src); len(diags) != 1 {
		t.Errorf("mutual recursion must not launder guards: %+v", diags)
	}
}

func TestIgnoreDirectives(t *testing.T) {
	src := header + `
// handler emits once per request; the sink is never nil here.
//obsguard:ignore cold path, sink injected per request
func handler(s *Sink) {
	s.Emit(ev())
	s.ProfPhase("parse", 0, 0)
}
func inline(s *Sink) {
	s.Emit(ev()) //obsguard:ignore boot-time, runs once
	//obsguard:ignore next line
	s.Emit(ev())
	s.Emit(ev())
}
`
	diags := check(t, src)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (only the undirected emit): %+v", len(diags), diags)
	}
}

// TestIdentityRendersStayBehindTracing: in the per-search-step packages an
// identity is a word; rendering it as a string is a tracing-tier cost like an
// Emit, so it needs the same guard (or a stated reason). Elsewhere — display
// code, tests' helpers, the CLI — rendering is the point and is left alone.
func TestIdentityRendersStayBehindTracing(t *testing.T) {
	src := header + `
func a(s *Sink, n *Node, ts TableSet) error {
	if n.Key() == n.Inputs[0].Key() { // two findings: compare ID() instead
		return nil
	}
	if s.Enabled() {
		s.StartSpan("glue.call", ts.Key(), "", 0) // the always-on tier is not enough
	}
	if s.Tracing() {
		s.Emit(Event{A1: ts.Key(), A2: n.Fingerprint()})
		_ = n.ShapeFingerprint()
	}
	_ = m[k].Key(1) // not the argument-less renderer
	_ = n.ID() == n.Inputs[0].ID()
	return errorf("no plan for %s", ts.Key()) //obsguard:ignore error path
}
func describe(n *Node) string { return n.Fingerprint() }
func b(s *Sink, n *Node) {
	if !s.Tracing() {
		return
	}
	_ = describe(n)
}
`
	for _, dir := range []string{"internal/glue", "/repo/internal/star", "internal/opt", "internal/cost"} {
		diags := checkIn(t, dir, src)
		if len(diags) != 3 {
			t.Fatalf("%s: got %d diagnostics, want 3: %+v", dir, len(diags), diags)
		}
		for _, d := range diags {
			if !strings.Contains(d.Msg, "Key renders an identity string") {
				t.Errorf("%s: unexpected message %q", dir, d.Msg)
			}
		}
	}
	// Tests render and emit freely, wherever they live.
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "internal/glue/glue_test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if diags := Check(fset, []*ast.File{f}); len(diags) != 0 {
		t.Errorf("a test file was checked: %+v", diags)
	}
	for _, dir := range []string{"", "internal/plan", "internal/provenance", "cmd/starburst", "internal/optional"} {
		if diags := checkIn(t, dir, src); len(diags) != 0 {
			t.Errorf("%q is not a search-path package, yet: %+v", dir, diags)
		}
	}
}

func TestGuardAcrossFilesDoesNotLeak(t *testing.T) {
	// A guard ident in one function must not excuse another function.
	src := header + `
func a(s *Sink) {
	profiled := s.ProfEnabled()
	_ = profiled
}
func b(s *Sink, profiled bool) {
	if profiled {
		s.Emit(ev()) // bool param, not assigned from a guard here
	}
}
`
	if diags := check(t, src); len(diags) != 1 {
		t.Errorf("foreign guard ident leaked: %+v", diags)
	}
}

// TestRepoSelfGate runs the analyzer over every non-test package of the
// main module: the repository must satisfy its own invariant. This is the
// tier-1 stand-in for the CI `go vet -vettool` leg (which needs x/tools).
func TestRepoSelfGate(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string][]string{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "vettool" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		pkgs[dir] = append(pkgs[dir], path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("walked only %d packages from %s; wrong root?", len(pkgs), root)
	}
	for dir, paths := range pkgs {
		fset := token.NewFileSet()
		var files []*ast.File
		for _, p := range paths {
			f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			files = append(files, f)
		}
		for _, d := range Check(fset, files) {
			t.Errorf("%s: %s: %s", dir, fset.Position(d.Pos), d.Msg)
		}
	}
}
