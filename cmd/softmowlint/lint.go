package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Finding is one analyzer report, anchored to a source position.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

// checkNames is the set of valid analyzer names a //softmow:allow
// annotation may reference.
var checkNames = map[string]bool{
	"lockguard":   true,
	"determinism": true,
	"layering":    true,
	"errdiscard":  true,
	"wireparity":  true,
	"gospawn":     true,
	"metricname":  true,
	"staleallow":  true,
}

// checkNameList returns the valid check names, sorted, for diagnostics.
func checkNameList() string {
	names := make([]string, 0, len(checkNames))
	for n := range checkNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// annotation is one well-formed //softmow:allow comment. used records
// whether the annotation suppressed at least one finding this run — the
// staleallow analyzer reports the ones that never fire.
type annotation struct {
	pos   token.Position
	check string
	used  bool
}

// suppressions indexes a package's annotations by the source lines they
// cover. An annotation suppresses findings on its own line and the line
// below it, so both trailing and standalone comment placement work:
//
//	x := f() //softmow:allow errdiscard best-effort notice
//
//	//softmow:allow errdiscard best-effort notice
//	x := f()
type suppressions struct {
	// byLine maps filename → covered line → annotations covering it.
	byLine map[string]map[int][]*annotation
	// list holds every annotation once, in collection order.
	list []*annotation
}

// collectSuppressions parses //softmow:allow annotations from every file of
// the package. Malformed annotations (unknown check, missing reason) are
// themselves findings — a suppression without a stated reason defeats the
// point of the annotation.
func collectSuppressions(p *Package) (*suppressions, []Finding) {
	sup := &suppressions{byLine: make(map[string]map[int][]*annotation)}
	var bad []Finding
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//softmow:allow")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				switch {
				case len(fields) == 0 || !checkNames[fields[0]]:
					bad = append(bad, Finding{Pos: pos, Check: "suppression",
						Message: "softmow:allow must name a check (" + checkNameList() + ")"})
					continue
				case len(fields) < 2:
					bad = append(bad, Finding{Pos: pos, Check: "suppression",
						Message: "softmow:allow " + fields[0] + " needs a reason"})
					continue
				}
				a := &annotation{pos: pos, check: fields[0]}
				sup.list = append(sup.list, a)
				byLine := sup.byLine[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*annotation)
					sup.byLine[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					byLine[line] = append(byLine[line], a)
				}
			}
		}
	}
	return sup, bad
}

// allowed reports whether a finding at pos is covered by an annotation,
// marking every matching annotation as used.
func (s *suppressions) allowed(check string, pos token.Position) bool {
	hit := false
	for _, a := range s.byLine[pos.Filename][pos.Line] {
		if a.check == check {
			a.used = true
			hit = true
		}
	}
	return hit
}

// filterSuppressed drops findings covered by //softmow:allow annotations
// and appends findings for malformed annotations. Per-analyzer fixture
// tests use it directly; the production configuration goes through
// applySuppressions so unused annotations are reported too.
func filterSuppressed(p *Package, findings []Finding) []Finding {
	out, _ := suppressAndMark(p, findings)
	return out
}

// suppressAndMark filters findings through the package's annotations and
// returns the survivors (malformed-annotation findings prepended) along
// with the annotation index, whose used flags now reflect this finding
// set.
func suppressAndMark(p *Package, findings []Finding) ([]Finding, *suppressions) {
	sup, bad := collectSuppressions(p)
	out := bad
	for _, f := range findings {
		if !sup.allowed(f.Check, f.Pos) {
			out = append(out, f)
		}
	}
	return out, sup
}

// applySuppressions is the production filter: findings covered by
// annotations are dropped, malformed annotations are findings, and — the
// staleallow check — so is every well-formed annotation that suppressed
// nothing, because a dead //softmow:allow re-arms silently the next time
// the code regresses. Annotations naming staleallow itself are judged in a
// second phase against the stale findings, so a deliberately kept
// suppression can be excused like any other finding.
func applySuppressions(p *Package, findings []Finding) []Finding {
	out, sup := suppressAndMark(p, findings)
	staleMsg := func(check string) string {
		return "softmow:allow " + check + " suppresses nothing; remove the stale annotation"
	}
	for _, a := range sup.list {
		if a.used || a.check == "staleallow" {
			continue
		}
		f := Finding{Pos: a.pos, Check: "staleallow", Message: staleMsg(a.check)}
		if !sup.allowed(f.Check, f.Pos) {
			out = append(out, f)
		}
	}
	for _, a := range sup.list {
		if a.check == "staleallow" && !a.used {
			out = append(out, Finding{Pos: a.pos, Check: "staleallow", Message: staleMsg(a.check)})
		}
	}
	return out
}

// sortFindings orders findings by file, line, column, then check.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}

// ---------------------------------------------------------------------------
// lockguard

var guardedByRE = regexp.MustCompile(`\bguarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// guardAnnotation extracts the mutex field name from a struct field's doc
// or trailing comment, if annotated.
func guardAnnotation(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// lockguard enforces the `// guarded by <mutexField>` field-comment
// contract: a guarded field may only be read or written inside a function
// that locks the named sibling mutex on the same base expression (c.mu for
// an access to c.devices), or inside a helper whose name ends in "Locked"
// (callers hold the lock by convention).
//
// The check is function-granular: it looks for a Lock/RLock call anywhere
// in the enclosing top-level function (including nested closures), not for
// a dominating critical section, so it cannot prove the access is inside
// the locked region — it catches the common bug of forgetting the lock
// entirely, which is the failure mode that matters during refactors.
func lockguard(p *Package) []Finding {
	guarded := make(map[*types.Var]string)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				mux := guardAnnotation(fld)
				if mux == "" {
					continue
				}
				for _, name := range fld.Names {
					if v, ok := p.Info.Defs[name].(*types.Var); ok {
						guarded[v] = mux
					}
				}
			}
			return true
		})
	}
	if len(guarded) == 0 {
		return nil
	}

	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			locked := make(map[string]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
					(sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") {
					locked[types.ExprString(sel.X)] = true
				}
				return true
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s := p.Info.Selections[sel]
				if s == nil || s.Kind() != types.FieldVal {
					return true
				}
				v, ok := s.Obj().(*types.Var)
				if !ok {
					return true
				}
				mux, isGuarded := guarded[v]
				if !isGuarded {
					return true
				}
				want := types.ExprString(sel.X) + "." + mux
				if !locked[want] {
					out = append(out, Finding{
						Pos:   p.Fset.Position(sel.Sel.Pos()),
						Check: "lockguard",
						Message: "field " + v.Name() + " is guarded by " + mux +
							", but " + fd.Name.Name + " never locks " + want,
					})
				}
				return true
			})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// determinism

// pkgFunc resolves a call of the form pkg.Fn where pkg is an imported
// package name, returning the package path and function name.
func pkgFunc(p *Package, call *ast.CallExpr) (pkgPath, fn string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// isSortCall reports whether a call invokes package sort or a function
// whose name mentions sorting (dataplane.SortDeviceIDs, sortedBearers, …).
func isSortCall(p *Package, call *ast.CallExpr) bool {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "sort" {
				return true
			}
		}
		name = fun.Sel.Name
	default:
		return false
	}
	return strings.Contains(strings.ToLower(name), "sort")
}

// determinism flags constructs that break seed-replay in replay-critical
// packages: wall-clock reads (time.Now), the global math/rand generator
// (replay needs the splittable simnet.RNG streams), and iteration over a
// map whose body accumulates order (append), sends on a channel, or
// performs southbound I/O. A map-range that appends is accepted when the
// enclosing function sorts afterwards — collect-then-sort is the repo's
// canonical pattern for deterministic map traversal.
func determinism(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var sortPositions []token.Pos
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isSortCall(p, call) {
					sortPositions = append(sortPositions, call.Pos())
				}
				return true
			})
			sortedAfter := func(pos token.Pos) bool {
				for _, sp := range sortPositions {
					if sp > pos {
						return true
					}
				}
				return false
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					pkg, fn := pkgFunc(p, n)
					if pkg == "time" && fn == "Now" {
						out = append(out, Finding{
							Pos:     p.Fset.Position(n.Pos()),
							Check:   "determinism",
							Message: "time.Now in a seed-replay-critical package; use the simnet clock or annotate",
						})
					}
					if pkg == "math/rand" && fn != "New" && fn != "NewSource" {
						out = append(out, Finding{
							Pos:     p.Fset.Position(n.Pos()),
							Check:   "determinism",
							Message: "global math/rand " + fn + " breaks seed replay; use simnet.RNG streams",
						})
					}
				case *ast.RangeStmt:
					t := p.Info.Types[n.X].Type
					if t == nil {
						return true
					}
					if _, isMap := t.Underlying().(*types.Map); !isMap {
						return true
					}
					kind := orderSensitive(p, n.Body)
					if kind == "" {
						return true
					}
					if kind == "append" && sortedAfter(n.Pos()) {
						return true
					}
					out = append(out, Finding{
						Pos:   p.Fset.Position(n.Pos()),
						Check: "determinism",
						Message: "range over map with order-sensitive body (" + kind +
							"): iteration order leaks into replayable behavior; sort first",
					})
				}
				return true
			})
		}
	}
	return out
}

// orderSensitive classifies whether a map-range body leaks iteration order:
// "append" (fixable by sorting afterwards), "channel send", or "southbound
// send" (a Send method call — rule programming or wire I/O in map order).
func orderSensitive(p *Package, body *ast.BlockStmt) string {
	kind := ""
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			kind = "channel send"
			return false
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "append" && kind == "" {
					kind = "append"
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Send" {
					kind = "southbound send"
					return false
				}
			}
		}
		return true
	})
	return kind
}

// ---------------------------------------------------------------------------
// layering

// layeringConfig scopes one layering rule to one package: symbols of
// another package it must not touch outside the allowed files.
type layeringConfig struct {
	// PkgPath is the package the rule applies to.
	PkgPath string
	// AllowedFiles (base names) may use the forbidden symbols; none means
	// nowhere in the package.
	AllowedFiles map[string]bool
	// FromPath is the package exporting the forbidden symbols.
	FromPath string
	// Forbidden names the symbols off limits: plain names for package-level
	// objects, Type.Method for methods.
	Forbidden map[string]bool
	// Reason completes the finding message: why the symbols stay out.
	Reason string
}

// coreLayering is the production configuration, two rules over
// internal/core (DESIGN.md §7). Raw FlowMod/FlowModBatch/Barrier
// southbound messages appear only in conndevice.go and batch.go, keeping
// every rule modification behind the batched, version-rollback-safe
// pipeline. And no delete command is mapped onto a flow table in core:
// that meaning lives in southbound.ApplyFlowMod alone, so an in-process
// switch cannot drift from a wire-attached one. (The §5.3.2 physical
// flush uses RemoveRulesIf, which is not a delete command.)
var coreLayering = []layeringConfig{{
	PkgPath:      "repro/internal/core",
	AllowedFiles: map[string]bool{"conndevice.go": true, "batch.go": true},
	FromPath:     "repro/internal/southbound",
	Forbidden: map[string]bool{
		"TypeFlowMod":        true,
		"TypeFlowModBatch":   true,
		"TypeBarrierRequest": true,
		"TypeBarrierReply":   true,
	},
	Reason: "raw rule messages must go through the batched ConnDevice pipeline",
}, {
	PkgPath:   "repro/internal/core",
	FromPath:  "repro/internal/dataplane",
	Forbidden: map[string]bool{"Network.RemoveRulesOwner": true},
	Reason:    "a delete command reaches a flow table only through southbound.ApplyFlowMod",
}}

// layering reports uses of forbidden symbols outside the allowed files of
// each configured package.
func layering(p *Package, cfgs []layeringConfig) []Finding {
	var out []Finding
	for _, cfg := range cfgs {
		if p.Path == cfg.PkgPath {
			out = append(out, layeringOne(p, cfg)...)
		}
	}
	return out
}

func layeringOne(p *Package, cfg layeringConfig) []Finding {
	where := "in " + cfg.PkgPath
	if len(cfg.AllowedFiles) > 0 {
		where = "outside " + allowedList(cfg)
	}
	var out []Finding
	for _, f := range p.Files {
		pos := p.Fset.Position(f.Pos())
		if cfg.AllowedFiles[pathBase(pos.Filename)] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != cfg.FromPath {
				return true
			}
			if name := qualifiedName(obj); cfg.Forbidden[name] {
				out = append(out, Finding{
					Pos:     p.Fset.Position(sel.Sel.Pos()),
					Check:   "layering",
					Message: name + " " + where + ": " + cfg.Reason,
				})
			}
			return true
		})
	}
	return out
}

// qualifiedName names obj as a Forbidden key: Type.Method for a method
// (pointer receivers included), the bare name otherwise.
func qualifiedName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Name()
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return obj.Name()
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// bannedImports is the module-wide half of layering: import paths no
// package under internal/ or cmd/ may use, each with the reason reported.
// southbound/codec.go is the one wire format; a reflection-driven second
// codec (and its decoder on untrusted input) must not come back.
var bannedImports = map[string]string{
	`encoding/gob`: "the binary codec in internal/southbound/codec.go is the only wire format",
}

// importBan reports every import of a banned path, whatever the package.
func importBan(p *Package, banned map[string]string) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if reason, ok := banned[path]; ok {
				out = append(out, Finding{
					Pos:     p.Fset.Position(imp.Path.Pos()),
					Check:   "layering",
					Message: "import of " + path + " is forbidden: " + reason,
				})
			}
		}
	}
	return out
}

func allowedList(cfg layeringConfig) string {
	names := make([]string, 0, len(cfg.AllowedFiles))
	for n := range cfg.AllowedFiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "/")
}

func pathBase(p string) string {
	if i := strings.LastIndexAny(p, `/\`); i >= 0 {
		return p[i+1:]
	}
	return p
}

// ---------------------------------------------------------------------------
// errdiscard

// errdiscard flags discarded error results: assignments of an error value
// to the blank identifier, and bare statement calls of module-internal
// functions that return an error. Stdlib calls (fmt.Fprintf on a builder,
// …) are deliberately exempt from the bare-statement rule — flagging them
// would bury the real signal, mirroring docscheck's documented leniency.
func errdiscard(p *Package, modulePrefix string) []Finding {
	errType := types.Universe.Lookup("error").Type()
	isError := func(t types.Type) bool { return t != nil && types.Identical(t, errType) }

	var out []Finding
	report := func(pos token.Pos, msg string) {
		out = append(out, Finding{Pos: p.Fset.Position(pos), Check: "errdiscard", Message: msg})
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name != "_" {
						continue
					}
					var t types.Type
					if len(n.Rhs) == len(n.Lhs) {
						t = p.Info.Types[n.Rhs[i]].Type
					} else if len(n.Rhs) == 1 {
						if tup, ok := p.Info.Types[n.Rhs[0]].Type.(*types.Tuple); ok && i < tup.Len() {
							t = tup.At(i).Type()
						}
					}
					if isError(t) {
						report(id.Pos(), "error result discarded with _; handle it or annotate why it is safe to drop")
					}
				}
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(p, call)
				if fn == nil || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), modulePrefix) {
					return true
				}
				if resultHasError(fn, isError) {
					report(call.Pos(), fn.Name()+" returns an error that is silently dropped; handle it or annotate why")
				}
			}
			return true
		})
	}
	return out
}

// calleeFunc resolves the *types.Func a call statically invokes, or nil
// for builtins, conversions, and calls through function values.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func resultHasError(fn *types.Func, isError func(types.Type) bool) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isError(res.At(i).Type()) {
			return true
		}
	}
	return false
}
