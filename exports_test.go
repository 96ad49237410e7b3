package adp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed maps each exported name that may lack a non-test
// caller to the reason it stays.
var testOnlyAllowed = map[string]string{
	"String":          "fmt.Stringer: fmt calls it",
	"Error":           "error: fmt and errors call it",
	"Unwrap":          "errors.Is and errors.As call it",
	"MarshalJSON":     "json.Marshaler: encoding/json calls it",
	"UnmarshalJSON":   "json.Unmarshaler: encoding/json calls it",
	"Len":             "sort.Interface: package sort calls it",
	"Less":            "sort.Interface: package sort calls it",
	"Swap":            "sort.Interface: package sort calls it",
	"KeepSelfLoops":   "self-loop graphs reach production through MapFlatBinary, whose validator accepts them; other packages' tests build them",
	"SetVertexWeight": "the paper's §3.1 vertex-data hook, listed in DESIGN.md's experiment index",
	"NewEmpty":        "the arc-at-a-time reference build: other packages' tests hand-build partitions with it and hold Builder output to it",
}

// testSeams are the packages whose exported API exists for tests by
// design: the fault injectors and the test utilities.
var testSeams = map[string]bool{
	"adp/internal/fault":    true,
	"adp/internal/testutil": true,
}

// TestNoTestOnlyExports fails on any exported function or method,
// declared in a non-test file of module adp, that no non-test file
// references: production code is only what production runs. Files of
// the benchmark module count as callers. Functions are matched by
// package and name, methods by name alone (a selector on any value),
// so the scan errs towards keeping code, never towards flagging it.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		pkg, name, pos string
		method         bool
	}
	var decls []decl
	funcRefs := map[string]bool{} // "pkg.Name" referenced as a function
	methodRefs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg := path.Join("adp", dir)
		benchmark := dir == "benchmark" || strings.HasPrefix(dir, "benchmark/")
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if !benchmark && fn.Name.IsExported() && !testSeams[pkg] {
				decls = append(decls, decl{pkg, fn.Name.Name, fset.Position(fn.Pos()).String(), fn.Recv != nil})
			}
			self := ""
			if fn.Recv == nil {
				self = fn.Name.Name
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					methodRefs[x.Sel.Name] = true
					if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
						funcRefs[imports[id.Name]+"."+x.Sel.Name] = true
					}
				case *ast.Ident:
					if x != fn.Name && x.Name != self {
						funcRefs[pkg+"."+x.Name] = true
					}
				}
				return true
			})
		}
		// Package-level var and const initialisers can reference too.
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				return false
			case *ast.SelectorExpr:
				methodRefs[x.Sel.Name] = true
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					funcRefs[imports[id.Name]+"."+x.Sel.Name] = true
				}
			case *ast.Ident:
				funcRefs[pkg+"."+x.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, d := range decls {
		called := funcRefs[d.pkg+"."+d.name]
		if d.method {
			called = methodRefs[d.name]
		}
		if called || testOnlyAllowed[d.name] != "" {
			continue
		}
		unused = append(unused, d.pos+": "+d.name)
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Fatalf("%d exported functions have no non-test caller; delete them, move them into a _test.go file, or allowlist them with a reason:\n%s",
			len(unused), strings.Join(unused, "\n"))
	}
}
