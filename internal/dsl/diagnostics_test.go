package dsl

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"macedon/internal/repo"
)

// TestParseDiagnosticsGolden pins Parse's first diagnostic on damaged input.
// For every token of specs/randtree.mac it parses the source with that token
// deleted and the source cut just before it, and records one line per input:
// the token's line:col and text, then Parse's error or "ok". Every error must
// be a positioned *Error. A truncation is where a parser that keeps going
// after its first error could loop, so a hang fails the test by timeout.
func TestParseDiagnosticsGolden(t *testing.T) {
	b, err := os.ReadFile(repo.Path("specs", "randtree.mac"))
	if err != nil {
		t.Fatal(err)
	}
	src := []rune(string(b))
	toks, err := lex(string(b))
	if err != nil {
		t.Fatal(err)
	}
	// lineStart[l] is the rune offset of line l+1.
	lineStart := []int{0}
	for i, r := range src {
		if r == '\n' {
			lineStart = append(lineStart, i+1)
		}
	}
	var out strings.Builder
	record := func(tok token, edit, input string) {
		msg := "ok"
		if _, err := Parse(input); err != nil {
			var perr *Error
			if !errors.As(err, &perr) {
				t.Errorf("%s %s at %s: error %v is not a *Error", edit, tok.text, tok.pos, err)
			}
			msg = err.Error()
		}
		fmt.Fprintf(&out, "%s %q %s: %s\n", tok.pos, tok.text, edit, msg)
	}
	for _, tok := range toks {
		if tok.kind == tokEOF {
			break
		}
		off := lineStart[tok.pos.Line-1] + tok.pos.Col - 1
		end := off + len([]rune(tok.text))
		record(tok, "delete", string(src[:off])+string(src[end:]))
		record(tok, "cut", string(src[:off]))
	}
	repo.RecordGolden(t, repo.Path("internal", "dsl", "testdata", "randtree_edits.golden"), out.String())
}
