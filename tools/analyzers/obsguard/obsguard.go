// Package obsguard statically enforces the repo's zero-alloc observability
// invariant: every event- or profile-emitting call on an obs sink must be
// dominated by the cheap guard of the tier that consumes it, because
// rendering the call's arguments (fingerprints, condition strings,
// composite events) costs allocations even when the sink would discard the
// result. See the Enabled and Tracing docs in internal/obs.
//
//   - Emit records an event, which only a tracing sink wants: it must be
//     dominated by Tracing (or its older name KeepsEvents). The few summary
//     events every enabled sink keeps carry an ignore directive.
//   - StartSpan, ProfActivity, ProfRank, ProfPhase feed the always-on tier
//     (histograms, the self-profiler): any guard — Enabled, ProfEnabled,
//     ProfLabels, Tracing — will do. StartSpan's a2 argument, though, is
//     recorded by tracing sinks alone, so a call rendering it in place must
//     be dominated by Tracing too (render it into a variable behind the
//     guard instead).
//   - Tally increments (Stats counters, fixed-size per-alternative or
//     per-operator arrays) are not calls on the sink and need no guard.
//   - In the packages that run per search step (internal/glue, star, opt,
//     cost) a plan or set identity is a word — plan.Node.ID, TableSet.Mask,
//     PredSet.Hash64. Rendering it as a string there (Fingerprint(),
//     ShapeFingerprint(), Key()) is for a tracing sink's events alone and
//     must be dominated by Tracing like an Emit; error messages and display
//     walks carry an ignore directive.
//
// A call is considered guarded when, within its enclosing function:
//
//   - it sits in the body of an if-statement whose condition mentions a
//     guard call or a boolean assigned from one (`if sink.Enabled()`,
//     `profiled := sink.ProfEnabled(); ...; if profiled { ... }`), or
//   - an earlier statement in an enclosing block is an early exit on the
//     negated guard (`if !sink.Enabled() { return }`), or
//   - the enclosing function is a package-local helper and every one of
//     its call sites in the package is itself guarded (render helpers like
//     emitOpEvents that document "caller checks Enabled"), or
//   - the call line, the line above it, or the enclosing function's doc
//     comment carries an `//obsguard:ignore` directive with a stated
//     reason (cold paths that emit unconditionally by design, e.g.
//     once-per-request serving code where the sink is never nil).
//
// The core is stdlib-only so the invariant is tested in tier-1; the
// vettool/ subdirectory wraps it in a go/analysis pass (separate module,
// needs golang.org/x/tools) that CI runs via `go vet -vettool`.
package obsguard

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Directive is the comment marker that exempts a call site or a whole
// function from the check. State the reason after the marker.
const Directive = "obsguard:ignore"

// emitMethods are the sink methods whose arguments render observability
// payloads and therefore must be guarded.
var emitMethods = map[string]bool{
	"Emit":         true,
	"StartSpan":    true,
	"ProfActivity": true,
	"ProfRank":     true,
	"ProfPhase":    true,
}

// renderMethods are the argument-less methods that render an identity word
// as a string; hotPackages the directories where that must stay behind a
// Tracing guard.
var (
	renderMethods = map[string]bool{"Fingerprint": true, "ShapeFingerprint": true, "Key": true}
	hotPackages   = []string{"internal/glue", "internal/star", "internal/opt", "internal/cost"}
)

// hotPath reports whether the file holding pos belongs to one of hotPackages.
func (c *checker) hotPath(pos token.Pos) bool {
	dir := filepath.ToSlash(filepath.Dir(c.fset.Position(pos).Filename))
	for _, p := range hotPackages {
		if dir == p || strings.HasSuffix(dir, "/"+p) {
			return true
		}
	}
	return false
}

// guardMethods are the cheap nil-safe predicates that establish domination;
// traceGuardMethods the subset that also establishes the tracing tier.
var (
	guardMethods = map[string]bool{
		"Enabled":     true,
		"ProfEnabled": true,
		"ProfLabels":  true,
		"Tracing":     true,
		"KeepsEvents": true,
	}
	traceGuardMethods = map[string]bool{
		"Tracing":     true,
		"KeepsEvents": true,
	}
)

// needsTrace reports whether an emit call is only of use to a tracing sink:
// every Emit, and a StartSpan that renders its a2 argument in place.
func needsTrace(method string, call *ast.CallExpr) bool {
	if method == "Emit" {
		return true
	}
	if method != "StartSpan" || len(call.Args) < 3 {
		return false
	}
	renders := false
	ast.Inspect(call.Args[2], func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			renders = true
		}
		return !renders
	})
	return renders
}

// Diagnostic is one violation: an emit call with no dominating guard.
type Diagnostic struct {
	Pos token.Pos
	Msg string
}

type callSite struct {
	from      string // key of the calling function
	dominated bool   // guard-dominated (or exempted) at the site
	traced    bool   // Tracing-dominated (or exempted) at the site
}

// pendingDiag is an emit call with no local guard of the tier it needs,
// awaiting caller resolution.
type pendingDiag struct {
	Diagnostic
	trace bool // needs a Tracing guard, not just any
}

// fnInfo is the per-function record the helper fixpoint runs over.
type fnInfo struct {
	exempt  bool // function-level directive
	pending []pendingDiag
	sites   []callSite // package-local calls of this function
}

type checker struct {
	fset        *token.FileSet
	diags       []Diagnostic
	ignoreLines map[string]map[int]bool
	fns         map[string]*fnInfo
}

// Check analyzes one package's files (parsed with comments, sharing fset)
// and returns the violations in position order. Test files are skipped: the
// invariant is about the product's paths, and tests emit and render freely
// (`go vet -vettool` hands them in alongside the package).
func Check(fset *token.FileSet, files []*ast.File) []Diagnostic {
	files = slices.DeleteFunc(slices.Clone(files), func(f *ast.File) bool {
		return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
	})
	c := &checker{
		fset:        fset,
		ignoreLines: map[string]map[int]bool{},
		fns:         map[string]*fnInfo{},
	}
	// Pass 0: comment directives and the function universe, so call sites
	// recorded in pass 1 can land on not-yet-scanned callees.
	for _, f := range files {
		c.collectDirectives(f)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				c.fns[funcKey(fn)] = &fnInfo{exempt: commentHas(fn.Doc, Directive)}
			}
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				c.scanFunc(fn)
			}
		}
	}
	c.resolveHelpers()
	sort.Slice(c.diags, func(i, j int) bool { return c.diags[i].Pos < c.diags[j].Pos })
	return c.diags
}

// commentHas scans raw comment lines: CommentGroup.Text() strips
// directive-style comments, which is exactly what the marker is.
func commentHas(g *ast.CommentGroup, marker string) bool {
	if g == nil {
		return false
	}
	for _, cm := range g.List {
		if strings.Contains(cm.Text, marker) {
			return true
		}
	}
	return false
}

func (c *checker) collectDirectives(f *ast.File) {
	for _, g := range f.Comments {
		for _, cm := range g.List {
			if !strings.Contains(cm.Text, Directive) {
				continue
			}
			p := c.fset.Position(cm.Pos())
			lines := c.ignoreLines[p.Filename]
			if lines == nil {
				lines = map[int]bool{}
				c.ignoreLines[p.Filename] = lines
			}
			lines[p.Line] = true
		}
	}
}

func (c *checker) ignoredAt(pos token.Pos) bool {
	p := c.fset.Position(pos)
	lines := c.ignoreLines[p.Filename]
	// A directive exempts its own line (trailing comment) or the next
	// (standalone comment above the call).
	return lines[p.Line] || lines[p.Line-1]
}

// funcKey names a function uniquely within the package: "Name" for plain
// functions, "(T).Name" for methods (pointerness and type parameters are
// stripped, so call-site resolution by name works without type info).
func funcKey(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	return "(" + recvTypeName(fn.Recv.List[0].Type) + ")." + fn.Name.Name
}

func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

func (c *checker) scanFunc(fn *ast.FuncDecl) {
	key := funcKey(fn)
	info := c.fns[key]
	guards := guardIdents(fn.Body, guardMethods)
	traceGuards := guardIdents(fn.Body, traceGuardMethods)
	hot := c.hotPath(fn.Pos())
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			render := hot && renderMethods[fun.Sel.Name] && len(call.Args) == 0
			if !render && !emitMethods[fun.Sel.Name] {
				return true
			}
			if info.exempt || c.ignoredAt(call.Pos()) {
				return true
			}
			if render {
				if !dominated(fn.Body, call, traceGuards, traceGuardMethods) {
					info.pending = append(info.pending, pendingDiag{trace: true, Diagnostic: Diagnostic{
						Pos: call.Pos(),
						Msg: fun.Sel.Name + " renders an identity string on the search path and is not dominated by a Tracing() guard (compare or carry the word — ID, Mask, Hash64 — instead, guard it, or annotate //obsguard:ignore with a reason)",
					}})
				}
				return true
			}
			trace := needsTrace(fun.Sel.Name, call)
			want := "an Enabled()/ProfEnabled()"
			if trace {
				if dominated(fn.Body, call, traceGuards, traceGuardMethods) {
					return true
				}
				want = "a Tracing()"
			} else if dominated(fn.Body, call, guards, guardMethods) {
				return true
			}
			info.pending = append(info.pending, pendingDiag{trace: trace, Diagnostic: Diagnostic{
				Pos: call.Pos(),
				Msg: fun.Sel.Name + " call not dominated by " + want + " guard (zero-alloc invariant; guard it, hoist it behind the caller's guard, or annotate //obsguard:ignore with a reason)",
			}})
		case *ast.Ident:
			// A package-local helper call: record whether this site is
			// guarded so the helper's own emit calls can inherit it.
			callee, known := c.fns[fun.Name]
			if !known {
				return true
			}
			exempt := info.exempt || c.ignoredAt(call.Pos())
			callee.sites = append(callee.sites, callSite{
				from:      key,
				dominated: exempt || dominated(fn.Body, call, guards, guardMethods),
				traced:    exempt || dominated(fn.Body, call, traceGuards, traceGuardMethods),
			})
		}
		return true
	})
}

// resolveHelpers flushes pending diagnostics: a function keeps a finding
// unless every package-local call site is guarded at the tier the finding
// needs (transitively through caller helpers). Functions nobody in the
// package calls — exported API, handlers — get no benefit of the doubt.
func (c *checker) resolveHelpers() {
	type query struct {
		key   string
		trace bool
	}
	memo := map[query]bool{}
	var guardedFn func(q query, onPath map[string]bool) bool
	guardedFn = func(q query, onPath map[string]bool) bool {
		if v, ok := memo[q]; ok {
			return v
		}
		if onPath[q.key] {
			return false // recursion: no guarantee
		}
		onPath[q.key] = true
		defer delete(onPath, q.key)
		info := c.fns[q.key]
		ok := info != nil && len(info.sites) > 0
		if info != nil {
			for _, s := range info.sites {
				here := s.dominated
				if q.trace {
					here = s.traced
				}
				if !here && !guardedFn(query{s.from, q.trace}, onPath) {
					ok = false
					break
				}
			}
		}
		memo[q] = ok
		return ok
	}
	for key, info := range c.fns {
		for _, p := range info.pending {
			if !guardedFn(query{key, p.trace}, map[string]bool{}) {
				c.diags = append(c.diags, p.Diagnostic)
			}
		}
	}
}

// guardIdents collects names assigned (anywhere in the body) from an
// expression that includes a call of one of the guard methods:
// `profiled := s.ProfEnabled()`, `full := pt.Obs.Tracing() || pt.PruneDisabled`.
func guardIdents(body *ast.BlockStmt, methods map[string]bool) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			hit := false
			for _, rhs := range st.Rhs {
				if exprHasGuard(rhs, nil, methods) {
					hit = true
				}
			}
			if hit {
				for _, lhs := range st.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						out[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			hit := false
			for _, rhs := range st.Values {
				if exprHasGuard(rhs, nil, methods) {
					hit = true
				}
			}
			if hit {
				for _, id := range st.Names {
					out[id.Name] = true
				}
			}
		}
		return true
	})
	return out
}

// exprHasGuard reports whether the expression mentions a call of one of the
// guard methods or a known guard boolean.
func exprHasGuard(e ast.Expr, guards, methods map[string]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && methods[sel.Sel.Name] {
				found = true
			}
		case *ast.Ident:
			if guards[x.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// dominated reports whether target (inside body) is controlled by a guard:
// an enclosing if-body whose condition mentions a guard, or an earlier
// early-exit statement `if !guard { return/continue/break/panic }` in an
// enclosing block.
func dominated(body *ast.BlockStmt, target ast.Node, guards, methods map[string]bool) bool {
	path := pathTo(body, target)
	for i, n := range path {
		var next ast.Node
		if i+1 < len(path) {
			next = path[i+1]
		}
		switch s := n.(type) {
		case *ast.IfStmt:
			if next == s.Body && exprHasGuard(s.Cond, guards, methods) {
				return true
			}
		case *ast.BlockStmt:
			for _, st := range s.List {
				if st == next {
					break
				}
				ifs, ok := st.(*ast.IfStmt)
				if ok && negatedGuard(ifs.Cond, guards, methods) && alwaysExits(ifs.Body) {
					return true
				}
			}
		case *ast.CaseClause:
			for _, st := range s.Body {
				if st == next {
					break
				}
				ifs, ok := st.(*ast.IfStmt)
				if ok && negatedGuard(ifs.Cond, guards, methods) && alwaysExits(ifs.Body) {
					return true
				}
			}
		}
	}
	return false
}

func negatedGuard(cond ast.Expr, guards, methods map[string]bool) bool {
	u, ok := cond.(*ast.UnaryExpr)
	return ok && u.Op == token.NOT && exprHasGuard(u.X, guards, methods)
}

// alwaysExits reports whether a block certainly diverts control flow:
// its last statement is a return, branch, or panic.
func alwaysExits(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// pathTo returns the node chain from root down to target (inclusive), or
// nil when target is not under root.
func pathTo(root, target ast.Node) []ast.Node {
	var stack, found []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if found != nil {
			return false
		}
		stack = append(stack, n)
		if n == target {
			found = append([]ast.Node(nil), stack...)
			return false
		}
		return true
	})
	return found
}
