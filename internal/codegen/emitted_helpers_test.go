package codegen

import (
	"macedon/internal/core"
	"macedon/internal/overlay"
)

// The nodeset helpers exactly as helperOrder emits them, compiled so that
// TestListOwnership can run them; the test fails when the two drift apart.

// listAppend appends a to the list unless already present (or nil), in
// place: a nodeset variable owns its array.
func listAppend(s []overlay.Address, a overlay.Address) []overlay.Address {
	if a == overlay.NilAddress {
		return s
	}
	for _, x := range s {
		if x == a {
			return s
		}
	}
	return append(s, a)
}

// listPrepend moves or inserts a at the front of the list.
func listPrepend(s []overlay.Address, a overlay.Address) []overlay.Address {
	if a == overlay.NilAddress {
		return s
	}
	out := make([]overlay.Address, 0, len(s)+1)
	out = append(out, a)
	for _, x := range s {
		if x != a {
			out = append(out, x)
		}
	}
	return out
}

// listRemove deletes every occurrence of a.
func listRemove(s []overlay.Address, a overlay.Address) []overlay.Address {
	out := make([]overlay.Address, 0, len(s))
	for _, x := range s {
		if x != a {
			out = append(out, x)
		}
	}
	return out
}

// listTrunc bounds the list to its first n entries.
func listTrunc(s []overlay.Address, n int32) []overlay.Address {
	if n < 0 {
		n = 0
	}
	if int32(len(s)) > n {
		return s[:n]
	}
	return s
}

// listGet returns the i-th entry, or NilAddress out of range.
func listGet(s []overlay.Address, i int32) overlay.Address {
	if i < 0 || int(i) >= len(s) {
		return overlay.NilAddress
	}
	return s[i]
}

// listRandom picks a uniformly random entry with the node's seeded
// source, or NilAddress when the list is empty.
func listRandom(ctx *core.Context, s []overlay.Address) overlay.Address {
	if len(s) == 0 {
		return overlay.NilAddress
	}
	return s[ctx.Rand().Intn(len(s))]
}

// listContains reports whether a is in the list.
func listContains(s []overlay.Address, a overlay.Address) bool {
	for _, x := range s {
		if x == a {
			return true
		}
	}
	return false
}
