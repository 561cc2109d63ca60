package main

import (
	"go/ast"
	"strings"
	"testing"
)

// TestWireparityMutation is a mutation test of the wireparity analyzer
// against the real codec: it deletes the decodeBody case for one message
// type from the southbound package's AST and asserts the analyzer reports
// exactly that type with exactly that missing facet — drift detection,
// not just all-or-nothing presence. Skipped under -short (it type-checks
// the southbound package and its dependencies).
func TestWireparityMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the southbound package")
	}
	repoRoot, module, err := findRepoRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	// A private loader: the mutation edits the package's AST in place and
	// must not leak into the shared fixture loader's cache.
	loader := NewLoader(repoRoot, module)
	p, err := loader.Load(module + "/internal/southbound")
	if err != nil {
		t.Fatal(err)
	}
	if fs := wireparity(p, southboundWireparity); len(fs) != 0 {
		t.Fatalf("baseline southbound package is not wireparity-clean: %v", fs)
	}

	const victim = "TypeNbTeardown"
	removed := false
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != southboundWireparity.DecodeFunc {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || removed {
					return !removed
				}
				kept := sw.Body.List[:0:0]
				for _, s := range sw.Body.List {
					if cc, ok := s.(*ast.CaseClause); ok && len(cc.List) == 1 {
						if id, ok := ast.Unparen(cc.List[0]).(*ast.Ident); ok && id.Name == victim {
							removed = true
							continue
						}
					}
					kept = append(kept, s)
				}
				sw.Body.List = kept
				return !removed
			})
		}
	}
	if !removed {
		t.Fatalf("no single-constant %s case for %s found to delete",
			southboundWireparity.DecodeFunc, victim)
	}

	fs := wireparity(p, southboundWireparity)
	if len(fs) != 1 {
		t.Fatalf("want exactly 1 finding after deleting the %s case, got %d: %v", victim, len(fs), fs)
	}
	msg := fs[0].Message
	if !strings.HasPrefix(msg, victim+":") || !strings.Contains(msg, "no "+southboundWireparity.DecodeFunc+" case") {
		t.Fatalf("finding does not name the mutated case: %s", msg)
	}
	if strings.Contains(msg, southboundWireparity.EncodeFunc+" case") || strings.Contains(msg, "corpus") {
		t.Fatalf("finding reports facets the mutation did not remove: %s", msg)
	}
}

// TestTestonlyMutation is a mutation test of the testonly analyzer against
// the real program: it deletes the only production statement that calls
// pathimpl.TransitRule from the core package's AST and asserts the
// analyzer now reports exactly that function, beside the annotated set it
// reported before. Skipped under -short (it
// type-checks the whole program).
func TestTestonlyMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole program")
	}
	repoRoot, module, err := findRepoRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := productionPackages(repoRoot, module)
	if err != nil {
		t.Fatal(err)
	}
	// A private loader: the mutation edits core's AST in place.
	loader := NewLoader(repoRoot, module)
	var prog []*Package
	var core *Package
	for _, ip := range paths {
		p, err := loader.Load(ip)
		if err != nil {
			t.Fatal(err)
		}
		prog = append(prog, p)
		if ip == module+"/internal/core" {
			core = p
		}
	}
	internal := func(p *Package) bool { return strings.HasPrefix(p.Path, module+"/internal/") }
	baseline := make(map[string]bool)
	for _, f := range testonly(prog, internal) {
		baseline[f.Message] = true // the annotated set
	}

	const victim = "TransitRule"
	calls := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == victim {
				found = true
			}
			return !found
		})
		return found
	}
	removed := 0
	for _, f := range core.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			b, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			kept := b.List[:0:0]
			for _, s := range b.List {
				// core installs each rule as `install(dev, rule)`.
				if es, ok := s.(*ast.ExprStmt); ok && calls(es) {
					removed++
					continue
				}
				kept = append(kept, s)
			}
			b.List = kept
			return true
		})
	}
	if removed != 1 {
		t.Fatalf("removed %d statements calling %s, want exactly 1", removed, victim)
	}

	var fresh []Finding
	for _, f := range testonly(prog, internal) {
		if !baseline[f.Message] {
			fresh = append(fresh, f)
		}
	}
	if len(fresh) != 1 || !strings.HasPrefix(fresh[0].Message, victim+" ") ||
		!strings.HasSuffix(fresh[0].Pos.Filename, "pathimpl.go") {
		t.Fatalf("want exactly one new finding for %s, got %v", victim, fresh)
	}
}
