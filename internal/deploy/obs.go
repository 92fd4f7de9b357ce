package deploy

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"macedon/internal/obs"
)

// The live backend's own part of the observability plane: the agents'
// metric pages. The op-level families, sampled events and spans are the
// shared engine's (scenario.Engine); what only a fleet of processes has is
// agent-local series (engine and socket counters, uptime), which arrive as
// pushed delta expositions or by scraping each agent's /metrics endpoint and
// are folded through obs.Fleet, which sums samples family by family.

// maxAgentLines bounds the retained agent event stream; beyond it the
// oldest lines are simply not kept (the per-agent ring still has them).
const maxAgentLines = 4096

// obsPushLocked folds one pushed delta exposition into agent i's push
// fleet (c.mu held): summing every delta from one generation reconstructs
// that generation's absolute totals, for counters and gauges alike.
func (c *controller) obsPushLocked(i int, expo string) {
	if !c.cfg.Obs || expo == "" {
		return
	}
	sc, err := obs.ParseText([]byte(expo))
	if err != nil {
		c.eng.Tracef("obs push node %d: bad exposition: %v", i, err)
		return
	}
	slot := c.agents[i]
	if slot.push == nil {
		slot.push = obs.NewFleet()
	}
	slot.push.Add(sc)
}

// scrapeFleet fetches every live agent's /metrics exposition. It runs
// without c.mu (HTTP round trips) right before the final report assembly.
func (c *controller) scrapeFleet() []*obs.Scrape {
	if !c.cfg.Obs || c.cfg.MetricsBase == 0 {
		return nil
	}
	client := &http.Client{Timeout: 3 * time.Second}
	var out []*obs.Scrape
	for i := range c.agents {
		c.mu.Lock()
		up := c.eng.Alive(i)
		c.mu.Unlock()
		if !up {
			continue
		}
		sc, err := scrapeAgent(client, fmt.Sprintf("http://%s:%d/metrics", c.cfg.Host, c.cfg.MetricsBase+i))
		if err != nil {
			c.mu.Lock()
			c.eng.Tracef("obs scrape node %d failed: %v", i, err)
			c.mu.Unlock()
			continue
		}
		out = append(out, sc)
	}
	return out
}

func scrapeAgent(client *http.Client, url string) (*obs.Scrape, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxFrame))
	if err != nil {
		return nil, err
	}
	return obs.ParseText(body)
}

// fleetPagesLocked picks the per-agent pages the report's exposition merges
// (c.mu held). Push shipping is the primary source (it needs no inbound path
// to the fleet); the HTTP scrape is the fallback. Each live slot contributes
// the page its last poll captured: the push-reconstructed exposition, or the
// reply's own page if no delta ever landed. Where both exist they must agree
// exactly on the engine/net families — the agent flushed its delta
// immediately before replying — so the check runs on every report and any
// drift lands in the trace.
func (c *controller) fleetPagesLocked(scrapes []*obs.Scrape) []*obs.Scrape {
	var pages []*obs.Scrape
	agree, mismatch := 0, 0
	for i, slot := range c.agents {
		if !c.eng.Alive(i) {
			continue
		}
		page := slot.pushExpo
		if page == "" {
			page = slot.expo
		} else if slot.expo != "" {
			if d := pushPollMismatch(slot.pushExpo, slot.expo); d != "" {
				mismatch++
				c.eng.Tracef("obs push/poll mismatch node %d: %s", i, d)
			} else {
				agree++
			}
		}
		if page == "" {
			continue
		}
		if sc, err := obs.ParseText([]byte(page)); err == nil {
			pages = append(pages, sc)
		}
	}
	if agree+mismatch > 0 {
		c.eng.Tracef("obs push/poll expositions agree for %d/%d agents", agree, agree+mismatch)
	}
	if len(pages) == 0 {
		return scrapes
	}
	return pages
}

// pushPollMismatch compares a push-reconstructed exposition with the poll
// reply's page over the engine/net families and returns a description of
// the first differing sample ("" when they agree). Those families are
// integral counters well under 2^53, so the telescoped float sum the push
// path produces is exact and the comparison can demand equality.
func pushPollMismatch(pushExpo, pollExpo string) string {
	a, errA := obs.ParseText([]byte(pushExpo))
	b, errB := obs.ParseText([]byte(pollExpo))
	if errA != nil || errB != nil {
		return "unparseable exposition"
	}
	filter := func(s *obs.Scrape) map[string]float64 {
		m := make(map[string]float64)
		for _, sm := range s.Samples {
			if strings.HasPrefix(sm.Name, "macedon_engine_") || strings.HasPrefix(sm.Name, "macedon_net_") {
				m[sm.Name+" "+sm.Labels] = sm.Value
			}
		}
		return m
	}
	am, bm := filter(a), filter(b)
	for k, av := range am {
		bv, ok := bm[k]
		if !ok {
			return fmt.Sprintf("%s: missing from poll page", k)
		}
		if av != bv {
			return fmt.Sprintf("%s: push %v poll %v", k, av, bv)
		}
	}
	for k := range bm {
		if _, ok := am[k]; !ok {
			return fmt.Sprintf("%s: missing from push page", k)
		}
	}
	return ""
}
