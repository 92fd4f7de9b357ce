package codegen

import (
	"fmt"
	"path"
	"slices"
	"strconv"
	"strings"

	"macedon/internal/dsl"
)

// Registry emits the registry package of specs generated together: per spec
// its name, the base its `uses` line names, the values its header sets on
// the base's int params, and its factory. importDir is the import path of
// the directory that holds each spec's package under its name, and of the
// registry; files[i] names specs[i] in errors. The specs are checked as a set
// first: every base is one of them, no `uses` chain comes back to where it
// started, and every param a header sets is an int auxiliary variable of
// its base.
func Registry(specs []*dsl.Spec, files []string, importDir string) (string, error) {
	byName := map[string]*dsl.Spec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	for i, s := range specs {
		base := byName[s.Uses]
		if s.Uses != "" && base == nil {
			return "", fmt.Errorf("%s: codegen: %s: protocol %s uses unknown base %q", files[i], s.UsesPos, s.Name, s.Uses)
		}
		for at, n := base, 0; at != nil && n <= len(specs); at, n = byName[at.Uses], n+1 {
			if at == s {
				return "", fmt.Errorf("%s: codegen: %s: protocol %s uses itself through its chain of bases", files[i], s.UsesPos, s.Name)
			}
		}
		for _, bp := range s.BaseParams {
			if !slices.ContainsFunc(base.StateVars, func(v dsl.StateVar) bool {
				return v.Name == bp.Name && v.Kind == dsl.VarPlain && v.Type == "int"
			}) {
				return "", fmt.Errorf("%s: codegen: %s: base %s declares no int auxiliary variable %q", files[i], bp.Pos, s.Uses, bp.Name)
			}
		}
	}
	var imports, entries strings.Builder
	for _, s := range slices.SortedFunc(slices.Values(specs), func(a, b *dsl.Spec) int { return strings.Compare(a.Name, b.Name) }) {
		fmt.Fprintf(&imports, "\t%q\n", importDir+"/"+s.Name)
		var params []string
		for _, bp := range s.BaseParams {
			v := bp.Value
			if i := slices.IndexFunc(s.Constants, func(c dsl.Constant) bool { return c.Name == v }); i >= 0 {
				v = s.Constants[i].Value
			}
			n, _ := strconv.Atoi(v) // as Validate read it
			params = append(params, fmt.Sprintf("%q: %d", bp.Name, n))
		}
		fmt.Fprintf(&entries, "\t%q: {%q, map[string]int{%s}, %s.New()},\n", s.Name, s.Uses, strings.Join(params, ", "), s.Name)
	}
	return fmt.Sprintf(registryFile, path.Base(importDir), imports.String(), entries.String()), nil
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
