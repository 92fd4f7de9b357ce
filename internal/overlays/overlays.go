// Code generated by "macedon gen". DO NOT EDIT.

// Package overlays is the registry of the generated protocols.
package overlays

import (
	"macedon/internal/core"
	"macedon/internal/overlays/ammo"
	"macedon/internal/overlays/bullet"
	"macedon/internal/overlays/chord"
	"macedon/internal/overlays/nice"
	"macedon/internal/overlays/overcast"
	"macedon/internal/overlays/pastry"
	"macedon/internal/overlays/randtree"
	"macedon/internal/overlays/scribe"
	"macedon/internal/overlays/splitstream"
)

// Protocols maps each spec's name onto the base it layers on ("" for a
// lowest layer), the values its header sets on the base's int params, and
// the factory of its agent.
var Protocols = map[string]struct {
	Uses       string
	BaseParams map[string]int
	New        core.Factory
}{
	"ammo":        {"", map[string]int{}, ammo.New()},
	"bullet":      {"randtree", map[string]int{}, bullet.New()},
	"chord":       {"", map[string]int{}, chord.New()},
	"nice":        {"", map[string]int{}, nice.New()},
	"overcast":    {"", map[string]int{}, overcast.New()},
	"pastry":      {"", map[string]int{}, pastry.New()},
	"randtree":    {"", map[string]int{}, randtree.New()},
	"scribe":      {"pastry", map[string]int{}, scribe.New()},
	"splitstream": {"scribe", map[string]int{"max_children": 16}, splitstream.New()},
}
