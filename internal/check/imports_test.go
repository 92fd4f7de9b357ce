package check_test

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestNoOverlayImports guards the correctness plane's boundary: it reads a
// protocol's routing state only through the view the protocol's spec
// declares (core.Routed), so no non-test file here imports an overlay. A
// new protocol is then checked without an edit in this package.
func TestNoOverlayImports(t *testing.T) {
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range files {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(path, "macedon/internal/overlays/") {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), path)
			}
		}
	}
}
