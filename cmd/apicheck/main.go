// Command apicheck enforces two v1 API contracts statically: every wire
// error written inside internal/service must carry one of the registered
// stable error codes, and every success body must be a declared type.
//
// The contract is cheap to check because writeError folds all dynamic
// status upgrades (ErrStore -> 500 store_failure) inside itself, so every
// call site is supposed to pass a literal Code* constant:
//
//	writeError(w, http.StatusNotFound, CodeGraphNotFound, err)
//	writeRateLimited(w, CodeQuotaExceeded, err)
//
// apicheck parses the service package, collects the ErrorCode constants
// declared in errors.go, and fails (exit 1, one line per offence) when a
// writeError/writeRateLimited call passes anything else — a raw string, a
// variable, a computed expression. That turns "every error response has a
// stable machine-readable code" from a review convention into a CI gate.
//
// Success bodies are declared structs (see internal/service/api.go) that
// pkg/client aliases, so the server and the client share one definition.
// apicheck fails on any map[string]any (or map[string]interface{})
// composite literal in a non-test file of the package: an ad-hoc map body
// would drift from the client's type unnoticed.
//
// Usage:
//
//	apicheck [dir]    # dir defaults to internal/service
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

// codeArgIndex maps the guarded writer functions to the position of their
// ErrorCode argument.
var codeArgIndex = map[string]int{
	"writeError":       2,
	"writeRateLimited": 1,
}

func main() {
	dir := "internal/service"
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apicheck: %v\n", err)
		os.Exit(2)
	}

	codes := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			collectCodes(file, codes)
		}
	}
	if len(codes) == 0 {
		fmt.Fprintf(os.Stderr, "apicheck: no ErrorCode constants found under %s\n", dir)
		os.Exit(2)
	}

	var offences []string
	calls := 0
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			if !strings.HasSuffix(name, "_test.go") {
				offences = append(offences, untypedBodies(fset, file)...)
			}
			for _, decl := range file.Decls {
				// The writer functions' own bodies forward code variables
				// internally; the contract binds their call sites.
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if _, isWriter := codeArgIndex[fd.Name.Name]; isWriter {
						continue
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn, ok := call.Fun.(*ast.Ident)
					if !ok {
						return true
					}
					idx, ok := codeArgIndex[fn.Name]
					if !ok {
						return true
					}
					calls++
					if idx >= len(call.Args) {
						offences = append(offences, fmt.Sprintf("%s: %s call with too few arguments",
							fset.Position(call.Pos()), fn.Name))
						return true
					}
					arg, ok := call.Args[idx].(*ast.Ident)
					if !ok || !codes[arg.Name] {
						offences = append(offences, fmt.Sprintf("%s: %s must be passed a declared Code* constant, got %s",
							fset.Position(call.Args[idx].Pos()), fn.Name, exprString(call.Args[idx])))
					}
					return true
				})
			}
		}
	}
	if calls == 0 {
		fmt.Fprintf(os.Stderr, "apicheck: no writeError/writeRateLimited calls found under %s — wrong directory?\n", dir)
		os.Exit(2)
	}
	if len(offences) > 0 {
		for _, o := range offences {
			fmt.Fprintf(os.Stderr, "apicheck: %s\n", o)
		}
		os.Exit(1)
	}
	fmt.Printf("apicheck: %d error-writing calls in %s all carry registered codes (%d codes declared); no map[string]any bodies\n",
		calls, dir, len(codes))
}

// untypedBodies reports every map[string]any composite literal in the
// file.
func untypedBodies(fset *token.FileSet, file *ast.File) []string {
	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if mt, ok := lit.Type.(*ast.MapType); ok && isIdent(mt.Key, "string") && isAny(mt.Value) {
			out = append(out, fmt.Sprintf("%s: map[string]any literal: declare a response type instead",
				fset.Position(lit.Pos())))
		}
		return true
	})
	return out
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// isAny reports whether e is any or an empty interface{}.
func isAny(e ast.Expr) bool {
	if it, ok := e.(*ast.InterfaceType); ok {
		return len(it.Methods.List) == 0
	}
	return isIdent(e, "any")
}

// collectCodes records every constant of type ErrorCode declared in the
// file (const Code... ErrorCode = "...").
func collectCodes(file *ast.File, codes map[string]bool) {
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if t, ok := vs.Type.(*ast.Ident); !ok || t.Name != "ErrorCode" {
				continue
			}
			for _, name := range vs.Names {
				if strings.HasPrefix(name.Name, "Code") {
					codes[name.Name] = true
				}
			}
		}
	}
}

// exprString renders an offending argument for the report without
// dragging in go/printer.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.BasicLit:
		return v.Value
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.CallExpr:
		return exprString(v.Fun) + "(...)"
	default:
		return fmt.Sprintf("%T", e)
	}
}
