package repo

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Golden fails t unless got is byte-identical to the golden file at path,
// naming the first line that differs. It never writes the file: a golden is
// re-recorded only by the one test that owns it, through RecordGolden.
func Golden(t testing.TB, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (re-record with MACEDON_UPDATE_GOLDEN=1 go test ./...): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output diverges from %s:\n%s", path, FirstDiff(string(want), got))
	}
}

// RecordGolden is Golden for the one test that owns the file at path: with
// MACEDON_UPDATE_GOLDEN set, its first call for path in this process
// rewrites the file with got. Later calls only compare, so a run at another
// shard count that disagrees with the recorded one still fails.
func RecordGolden(t testing.TB, path, got string) {
	t.Helper()
	if os.Getenv("MACEDON_UPDATE_GOLDEN") != "" {
		recordedMu.Lock()
		first := !recorded[path]
		recorded[path] = true
		recordedMu.Unlock()
		if first {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	Golden(t, path, got)
}

var (
	recordedMu sync.Mutex
	recorded   = map[string]bool{}
)

// FirstDiff names the first line on which want and got disagree.
func FirstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(wl), len(gl))
}

// GoldenShards returns the shard counts a golden runs at when its test does
// not pin one: MACEDON_GOLDEN_SHARDS, a comma-separated list (CI's golden
// matrix sets one count per leg), or 1 and 4 when it is unset.
func GoldenShards(t testing.TB) []int {
	t.Helper()
	env := os.Getenv("MACEDON_GOLDEN_SHARDS")
	if env == "" {
		return []int{1, 4}
	}
	var out []int
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			t.Fatalf("MACEDON_GOLDEN_SHARDS: bad shard count %q", f)
		}
		out = append(out, n)
	}
	return out
}
