package codegen

import (
	"fmt"
	"path"
	"slices"
	"strings"

	"macedon/internal/dsl"
)

// CheckLayering checks specs translated together as a set: no two declare
// one protocol name, every base a `uses` line names is one of them, no chain
// of bases comes back to where it started, and every param a header sets is
// an int auxiliary variable of its base. The i-th error is specs[i]'s, at
// the line and column of its header at fault, or nil; a nil spec, one that
// did not parse, is no one's base, and of two specs of one name the second
// is at fault.
func CheckLayering(specs []*dsl.Spec) []*dsl.Error {
	byName := map[string]*dsl.Spec{}
	errs := make([]*dsl.Error, len(specs))
	for i, s := range specs {
		switch {
		case s == nil:
		case byName[s.Name] != nil:
			errs[i] = &dsl.Error{Pos: s.Pos, Msg: fmt.Sprintf("protocol %s declared twice", s.Name)}
		default:
			byName[s.Name] = s
		}
	}
	for i, s := range specs {
		if errs[i] == nil && s != nil && s.Uses != "" {
			errs[i] = checkBase(s, byName)
		}
	}
	return errs
}

// checkBase checks layered spec s against its base among byName.
func checkBase(s *dsl.Spec, byName map[string]*dsl.Spec) *dsl.Error {
	base := byName[s.Uses]
	if base == nil {
		return &dsl.Error{Pos: s.UsesPos, Msg: fmt.Sprintf("protocol %s uses unknown base %q", s.Name, s.Uses)}
	}
	for at, n := base, 0; at != nil && n <= len(byName); at, n = byName[at.Uses], n+1 {
		if at == s {
			return &dsl.Error{Pos: s.UsesPos, Msg: fmt.Sprintf("protocol %s uses itself through its chain of bases", s.Name)}
		}
	}
	for _, bp := range s.BaseParams {
		if !slices.ContainsFunc(base.StateVars, func(v dsl.StateVar) bool {
			return v.Name == bp.Name && v.Kind == dsl.VarPlain && v.Type == "int"
		}) {
			return &dsl.Error{Pos: bp.Pos, Msg: fmt.Sprintf("base %s declares no int auxiliary variable %q", s.Uses, bp.Name)}
		}
	}
	return nil
}

// Registry emits the registry package of specs generated together, a set
// CheckLayering passes: per spec its name, the base its `uses` line names,
// the values its header sets on the base's int params, and its factory.
// importDir is the import path of the directory that holds each spec's
// package under its name, and of the registry.
func Registry(specs []*dsl.Spec, importDir string) string {
	var imports, entries strings.Builder
	for _, s := range slices.SortedFunc(slices.Values(specs), func(a, b *dsl.Spec) int { return strings.Compare(a.Name, b.Name) }) {
		fmt.Fprintf(&imports, "\t%q\n", importDir+"/"+s.Name)
		var params []string
		for _, bp := range s.BaseParams {
			n, _ := s.IntValue(bp.Value) // Validate read it as an int
			params = append(params, fmt.Sprintf("%q: %d", bp.Name, n))
		}
		fmt.Fprintf(&entries, "\t%q: {%q, map[string]int{%s}, %s.New()},\n", s.Name, s.Uses, strings.Join(params, ", "), s.Name)
	}
	return fmt.Sprintf(registryFile, path.Base(importDir), imports.String(), entries.String())
}

const registryFile = `// Code generated by "macedon gen". DO NOT EDIT.

// Package %[1]s is the registry of the generated protocols.
package %[1]s

import (
	"macedon/internal/core"
%[2]s)

// Protocols maps each spec's name onto the base it layers on ("" for a
// lowest layer), the values its header sets on the base's int params, and
// the factory of its agent.
var Protocols = map[string]struct {
	Uses       string
	BaseParams map[string]int
	New        core.Factory
}{
%[3]s}
`
