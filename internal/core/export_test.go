package core

import (
	"time"

	"macedon/internal/overlay"
)

// DefOf returns the Def an instance dispatches through.
func DefOf(i *Instance) *Def { return i.def }

// TimerPeriod returns a declared timer's default period.
func (d *Def) TimerPeriod(name string) time.Duration { return d.timers[name].period }

// Registry returns the message registry the Def's instances encode and
// decode against.
func (d *Def) Registry() *overlay.Registry { return d.registry }

// RxSlot returns the receive slot i decodes frames of the named message into:
// nil until the first such frame, and always for an instance whose Def is its
// own.
func RxSlot(i *Instance, name string) overlay.Message {
	id, ok := i.def.registry.ID(name)
	if !ok || int(id) >= len(i.hot.rx) {
		return nil
	}
	return i.hot.rx[id]
}

// Decode runs i's receive-path decode on frame. On a running node call it
// inside Node.Exec: it uses the node's Reader and i's receive slots.
func Decode(i *Instance, frame []byte) (overlay.Message, error) { return i.decode(frame) }

// DetachedInstance builds an instance of a on a node with no network: enough
// to drive its receive path.
func DetachedInstance(a Agent) (*Instance, error) { return newInstance(&Node{}, a) }

// ContextOf returns a context on i, as a transition of i receives one.
func ContextOf(i *Instance) *Context { return &Context{inst: i} }

// DetachedInstanceAt is DetachedInstance on a node at addr: its sends fail,
// having no network, but Self is addr.
func DetachedInstanceAt(a Agent, addr overlay.Address) (*Instance, error) {
	return newInstance(&Node{addr: addr}, a)
}
