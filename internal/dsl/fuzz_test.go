package dsl

import (
	"errors"
	"os"
	"strings"
	"testing"

	"macedon/internal/repo"
)

// FuzzParseSpec feeds arbitrary source to Parse, which validates what it
// parses: the first step of every .mac file a user hands `macedon check` or
// `macedon gen`. Seed corpus: the bundled specs/*.mac, and well-formed and
// malformed routing declarations over a small spec. Properties: Parse does
// not panic, every error it returns is a *Error with a line:column position,
// which is what the diagnostics promise their readers, and each token the
// lexer finds has its text in the source at its line:column, the column
// counted in runes.
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
		if toks, err := lex(src); err == nil {
			lines := strings.Split(src, "\n")
			for _, tok := range toks[:len(toks)-1] {
				line := []rune(lines[tok.pos.Line-1])
				if at := string(line[tok.pos.Col-1:]); !strings.HasPrefix(at, tok.text) {
					t.Fatalf("token %q at %s, where the source reads %q", tok.text, tok.pos, at)
				}
			}
		}
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
