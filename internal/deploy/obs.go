package deploy

import "macedon/internal/obs"

// The live backend's own part of the observability plane: the agents'
// metric pages. The op-level families, sampled events and spans are the
// shared engine's (scenario.Engine); what only a fleet of processes has is
// agent-local series (engine and socket counters, uptime). Each obs-enabled
// agent puts its full exposition page in every poll reply (Metrics.Expo),
// taken at the same instant as the counters the report is built from, and
// the report folds the pages through obs.Fleet, which sums samples family
// by family. The reply rides the agent's outbound control connection, so a
// NAT'd fleet reports with no inbound path at all.

// maxAgentLines bounds the retained agent event stream; beyond it the
// oldest lines are simply not kept (the per-agent ring still has them).
const maxAgentLines = 4096

// fleetPagesLocked parses the page each live agent's last poll reply
// carried (c.mu held). A page that does not parse is named in the trace and
// left out.
func (c *controller) fleetPagesLocked() []*obs.Scrape {
	var pages []*obs.Scrape
	for i, slot := range c.agents {
		if !c.eng.Alive(i) || slot.metrics.Expo == "" {
			continue
		}
		sc, err := obs.ParseText([]byte(slot.metrics.Expo))
		if err != nil {
			c.eng.Tracef("obs: node %d sent a bad exposition: %v", i, err)
			continue
		}
		pages = append(pages, sc)
	}
	return pages
}
