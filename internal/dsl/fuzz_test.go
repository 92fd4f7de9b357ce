package dsl

import (
	"errors"
	"os"
	"testing"

	"macedon/internal/repo"
)

// FuzzParseSpec feeds arbitrary source to Parse, which validates what it
// parses: the first step of every .mac file a user hands `macedon check` or
// `macedon gen`. Seed corpus: the bundled specs/*.mac, and well-formed and
// malformed routing declarations over a small spec. Properties: Parse does
// not panic, and every error it returns is a *Error with a line:column
// position, which is what the diagnostics promise their readers.
func FuzzParseSpec(f *testing.F) {
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
	for _, decl := range routingSeeds {
		f.Add(routingBase + decl + "\n")
	}
	for _, c := range routingErrors {
		f.Add(routingBase + c.decl + "\n")
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, err := Parse(src)
		if err == nil {
			return
		}
		var perr *Error
		if !errors.As(err, &perr) || perr.Pos.Line < 1 || perr.Pos.Col < 1 {
			t.Fatalf("error without a position: %v", err)
		}
	})
}
