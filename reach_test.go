package cloudalloc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachExceptions names the internal exports that no non-test file
// outside their package names, each with the reason it stays. Keys are
// "pkg.Name" for functions, vars and consts and "pkg.Recv.Name" for
// methods.
var reachExceptions = map[string]string{
	"alloc.Allocation.NumActiveServers": "test observation point: core and alloc tests count powered servers",
	"queueing.TandemSojournPercentile":  "test observation point: sim tests compare measured P95 against it",
	"telemetry.Histogram.Count":         "test observation point: instrumentation tests in other packages read observation counts",
	"telemetry.Histogram.Sum":           "test observation point: instrumentation tests in other packages read observed totals",

	"agentrpc.TransportError.Unwrap":      "errors.Is/As unwrap protocol",
	"epoch.ThresholdPolicy.ShouldResolve": "epoch.Policy method",
	"epoch.PeriodicPolicy.ShouldResolve":  "epoch.Policy method",
	"epoch.AlwaysPolicy.ShouldResolve":    "epoch.Policy method",
	"epoch.NeverPolicy.ShouldResolve":     "epoch.Policy method",
	"epoch.Diurnal.Factor":                "epoch.Pattern method",
	"epoch.FlashCrowd.Factor":             "epoch.Pattern method",
	"telemetry.EventKind.MarshalJSON":     "json.Marshaler method",
	"telemetry.ID.MarshalJSON":            "json.Marshaler method",
	"telemetry.ID.UnmarshalJSON":          "json.Unmarshaler method",
	"telemetry.discardHandler.Enabled":    "slog.Handler method",
	"telemetry.discardHandler.Handle":     "slog.Handler method",
	"telemetry.discardHandler.WithAttrs":  "slog.Handler method",
	"telemetry.discardHandler.WithGroup":  "slog.Handler method",
	"sim.eventHeap.Len":                   "container/heap.Interface method",
	"sim.eventHeap.Less":                  "container/heap.Interface method",
	"sim.eventHeap.Swap":                  "container/heap.Interface method",
	"sim.eventHeap.Push":                  "container/heap.Interface method",
	"sim.eventHeap.Pop":                   "container/heap.Interface method",
}

// TestInternalExportsReached keeps the internal surface no larger than
// its callers: every exported top-level function, method, var and const
// under internal/ must be named by some non-test file outside its own
// package — a command, an example, the facade, the benchmark module or
// another internal package. An export that only its own package uses
// is unexported; one that only tests reach is deleted. Matching is by
// name, so a common method name (Close, String) always passes; the scan
// errs only toward passing.
func TestInternalExportsReached(t *testing.T) {
	fset := token.NewFileSet()
	usedIn := map[string]map[string]bool{} // identifier → dirs naming it
	type export struct{ key, name, dir, pos string }
	var exports []export
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if usedIn[id.Name] == nil {
					usedIn[id.Name] = map[string]bool{}
				}
				usedIn[id.Name][dir] = true
			}
			return true
		})
		if !strings.HasPrefix(dir, "internal/") {
			return nil
		}
		pkg := strings.TrimPrefix(dir, "internal/")
		add := func(id *ast.Ident, key string) {
			if id.IsExported() {
				exports = append(exports, export{key, id.Name, dir, fset.Position(id.Pos()).String()})
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				key := pkg + "." + decl.Name.Name
				if decl.Recv != nil {
					key = pkg + "." + recvName(decl.Recv.List[0].Type) + "." + decl.Name.Name
				}
				add(decl.Name, key)
			case *ast.GenDecl:
				if decl.Tok != token.VAR && decl.Tok != token.CONST {
					continue
				}
				for _, spec := range decl.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						add(id, pkg+"."+id.Name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	seen := map[string]bool{}
	for _, e := range exports {
		seen[e.key] = true
		if _, ok := reachExceptions[e.key]; ok {
			continue
		}
		reached := false
		for dir := range usedIn[e.name] {
			if dir != e.dir {
				reached = true
				break
			}
		}
		if !reached {
			dead = append(dead, e.pos+": "+e.key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is named by no non-test file outside its package: unexport it, or delete it if only tests reach it", d)
	}
	for key := range reachExceptions {
		if !seen[key] {
			t.Errorf("reach exception %s names no internal export: drop it", key)
		}
	}
}

// recvName is the receiver's type name, without the pointer.
func recvName(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	return x.(*ast.Ident).Name
}
