package codegen

import (
	"errors"
	"go/parser"
	"go/token"
	"os"
	"testing"

	"macedon/internal/dsl"
	"macedon/internal/repo"
)

// FuzzGenerate feeds every source that parses to Generate: the path both
// `macedon check` and `macedon gen` take. Seed corpus: the bundled
// specs/*.mac, well-formed and malformed routing declarations over a small
// spec, and the randtree probes (repo.RandtreeProbes). Properties: Generate
// does not panic, every error it returns is a *dsl.Error with a line:column
// position, and whatever source it returns is Go that go/parser accepts, so
// an untranslatable statement is an error, never broken source.
func FuzzGenerate(f *testing.F) {
	paths, err := repo.Specs()
	if err != nil || len(paths) == 0 {
		f.Fatalf("no specs found: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, decl := range routingDecls {
		f.Add(routingBase + decl + "\n")
	}
	for _, p := range repo.RandtreeProbes {
		src, err := p.Apply()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := dsl.Parse(src)
		if err != nil {
			return
		}
		res, err := Generate(spec, "genfuzz")
		if err != nil {
			var perr *dsl.Error
			if !errors.As(err, &perr) || perr.Pos.Line < 1 || perr.Pos.Col < 1 {
				t.Fatalf("error without a position: %v", err)
			}
			return
		}
		if _, err := parser.ParseFile(token.NewFileSet(), "genfuzz.go", res.Source, 0); err != nil {
			t.Fatalf("generated source does not parse: %v\n%s", err, res.Source)
		}
	})
}
