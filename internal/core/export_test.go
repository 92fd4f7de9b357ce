package core

import "macedon/internal/overlay"

// RegistryOf returns the message registry an agent's Define builds: what the
// engine decodes that protocol's frames against.
func RegistryOf(a Agent) *overlay.Registry {
	d := newDef(protocolName(a))
	a.Define(d)
	return d.registry
}
