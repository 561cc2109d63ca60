package main

import (
	"go/ast"
	"go/types"
)

// testonly is the whole-program dead-code check: a function or method
// declared in a package that declared selects is a finding when no file of
// prog references it. prog is every production package of the program (the
// loader never parses _test.go files), so a declaration that only tests
// call is reported exactly like one nothing calls. A reference from inside
// the declaration's own body (recursion) does not count. A method whose
// name some interface declares — in prog or anything prog imports, the
// standard library included — counts as used: it may be reached by dynamic
// dispatch with no static reference to the concrete method. init and main
// are exempt.
func testonly(prog []*Package, declared func(*Package) bool) []Finding {
	ifaceMethods := interfaceMethodNames(prog)

	// Walk the files rather than Info.Uses, so a reference is a node of a
	// production AST (and a mutated AST changes the answer).
	used := make(map[*types.Func]bool)
	for _, p := range prog {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				var self *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok {
					self, _ = p.Info.Defs[fd.Name].(*types.Func)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}

	var out []Finding
	for _, p := range prog {
		if !declared(p) {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok || used[fn] {
					continue
				}
				name := fd.Name.Name
				switch {
				case fd.Recv == nil && (name == "init" || name == "main"):
					continue
				case fd.Recv != nil && ifaceMethods[name]:
					continue
				case fd.Recv != nil:
					name = recvTypeName(fn) + "." + name
				}
				out = append(out, Finding{
					Pos:   p.Fset.Position(fd.Name.Pos()),
					Check: "testonly",
					Message: name + " has no production reference: delete it, move it into the _test.go " +
						"that needs it, or annotate why it stays",
				})
			}
		}
	}
	return out
}

// interfaceMethodNames collects the method names declared by every
// interface type reachable from prog: the package-level named interfaces
// of prog and of every package it imports transitively, plus interface
// literals written anywhere in prog's files (constraints, anonymous
// assertion targets, struct fields).
func interfaceMethodNames(prog []*Package) map[string]bool {
	names := make(map[string]bool)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range prog {
		walk(p.Types)
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if tv, ok := p.Info.Types[it]; ok {
						addIface(tv.Type)
					}
				}
				return true
			})
		}
	}
	return names
}

// recvTypeName names a method's receiver base type, without pointer or
// type arguments.
func recvTypeName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
