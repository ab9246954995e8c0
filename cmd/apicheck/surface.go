package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// noReaderNeeded names the exported functions and methods under internal/
// that may stand without a production reader, each with its reason. A
// method is keyed by its receiver type: "service.Follower.ServeHTTP".
var noReaderNeeded = map[string]string{
	"service.NewKeyring": "public constructor for embedders; pkg/client's tests arm a keyring with it",
	"experiment.Lookup":  "the paper-table runner gpsbench -exp resolves experiment IDs with it",
}

// interfaceMethods are method names the standard library calls through an
// interface (error, fmt.Stringer, http.Handler, json.Marshaler and
// json.Unmarshaler, errors.Unwrap), so no Go file names them at the call
// site.
var interfaceMethods = map[string]bool{
	"Error":         true,
	"String":        true,
	"ServeHTTP":     true,
	"MarshalJSON":   true,
	"UnmarshalJSON": true,
	"Unwrap":        true,
}

// skipReaders are module-relative directories whose files do not count as
// readers: benchmark harnesses time code, they do not use it.
var skipReaders = []string{"bench", filepath.Join("cmd", "gpsbench")}

type exportedFunc struct {
	key    string // pkg.Name or pkg.Recv.Name
	name   string
	method bool
	pos    token.Position
}

// deadSurface reports every exported top-level function or method declared
// in a non-test file under root/internal that no non-test file of the
// module references by name outside its own declaration. Files under
// skipReaders and testdata directories are not readers.
func deadSurface(root string) ([]string, error) {
	fset := token.NewFileSet()
	var decls []exportedFunc
	used := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			for _, skip := range skipReaders {
				if rel == skip {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasPrefix(rel, "internal"+string(filepath.Separator)) {
			decls = append(decls, exportedFuncs(fset, file)...)
		}
		markUses(file, used)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(decls) == 0 {
		return nil, fmt.Errorf("no exported functions under %s — run from the module root", filepath.Join(root, "internal"))
	}
	var dead []exportedFunc
	for _, f := range decls {
		if used[f.name] || noReaderNeeded[f.key] != "" || f.method && interfaceMethods[f.name] {
			continue
		}
		dead = append(dead, f)
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	out := make([]string, len(dead))
	for i, f := range dead {
		out[i] = fmt.Sprintf("%s: %s is exported but has no production reader: delete it, or move it into the test that uses it",
			f.pos, f.key)
	}
	return out, nil
}

// exportedFuncs lists the exported top-level functions and methods the
// file declares.
func exportedFuncs(fset *token.FileSet, file *ast.File) []exportedFunc {
	var out []exportedFunc
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || !fd.Name.IsExported() {
			continue
		}
		key := file.Name.Name + "." + fd.Name.Name
		if fd.Recv != nil {
			key = file.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
		}
		out = append(out, exportedFunc{key: key, name: fd.Name.Name, method: fd.Recv != nil, pos: fset.Position(fd.Name.Pos())})
	}
	return out
}

// recvName strips pointers and type parameters from a receiver type.
func recvName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.StarExpr:
		return recvName(v.X)
	case *ast.IndexExpr:
		return recvName(v.X)
	case *ast.IndexListExpr:
		return recvName(v.X)
	case *ast.Ident:
		return v.Name
	}
	return "?"
}

// markUses records every identifier of the file in used, except, inside
// each function declaration, the identifiers that carry that function's
// own name: a declaration, or a recursive call, is no reader.
func markUses(file *ast.File, used map[string]bool) {
	for _, decl := range file.Decls {
		self := ""
		if fd, ok := decl.(*ast.FuncDecl); ok {
			self = fd.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name != self {
				used[id.Name] = true
			}
			return true
		})
	}
}
