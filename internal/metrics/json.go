package metrics

import (
	"encoding/json"
	"math"
	"time"

	"macedon/internal/check"
	"macedon/internal/obs"
	"macedon/internal/scenario"
	"macedon/internal/simnet"
)

// The JSON encoders are the machine-readable twins of the text renderers:
// `macedon sweep -json` and `macedon scenario`/`macedon deploy -json` emit
// them, and the live-deployment subsystem diffs a live report against an
// emulated one through this shared encoding (docs/deploy.md). Everything
// encoded here is deterministic for the emulated backends — wall-clock
// timings stay out — so the output can be diffed like a golden trace.

// PhaseJSON is one phase's encoded metrics.
type PhaseJSON struct {
	Name         string  `json:"name"`
	Start        string  `json:"start"`
	End          string  `json:"end"`
	LiveNodes    int     `json:"live_nodes"`
	OpsSent      int     `json:"ops_sent"`
	OpsDelivered int     `json:"ops_delivered"`
	OpsSkipped   int     `json:"ops_skipped,omitempty"`
	OpsForwarded int     `json:"ops_forwarded,omitempty"`
	DeliveryPct  float64 `json:"delivery_pct"`
	MeanLatency  float64 `json:"mean_latency_ms"`
	MeanHops     float64 `json:"mean_hops,omitempty"`
	CtlMsgs      uint64  `json:"ctl_msgs,omitempty"`
	CtlBytes     uint64  `json:"ctl_bytes,omitempty"`
	Net          NetJSON `json:"net"`
	// Obs carries the phase's observability histograms; absent unless the
	// run executed with the obs plane enabled, so pre-obs golden JSON is
	// byte-identical.
	Obs *PhaseObsJSON `json:"obs,omitempty"`
	// Checks carries the phase's invariant-checker verdict; absent unless
	// the scenario opted into the correctness plane (same byte-identity
	// contract as Obs).
	Checks *check.PhaseChecks `json:"checks,omitempty"`
}

// HistJSON encodes one histogram snapshot: per-bucket (non-cumulative)
// counts, the last entry being the +Inf overflow bucket.
type HistJSON struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

func histJSON(s obs.HistSnapshot) HistJSON {
	return HistJSON{Bounds: s.Bounds, Counts: s.Counts, Count: s.Count, Sum: s.Sum}
}

// PhaseObsJSON is one phase's encoded observability distributions and
// engine time series.
type PhaseObsJSON struct {
	Latency HistJSON    `json:"latency"`
	Hops    HistJSON    `json:"hops"`
	Series  *SeriesJSON `json:"series,omitempty"`
}

// SeriesJSON encodes one phase's engine time series: the column names and
// one point per sample, each with the phase-relative virtual-time offset in
// seconds and the column values.
type SeriesJSON struct {
	Columns []string          `json:"columns"`
	Points  []SeriesPointJSON `json:"points"`
	Dropped int               `json:"dropped,omitempty"`
}

// SeriesPointJSON is one encoded time-series point.
type SeriesPointJSON struct {
	T      float64   `json:"t"`
	Values []float64 `json:"values"`
}

func seriesJSON(s obs.SeriesSnapshot) *SeriesJSON {
	if len(s.Points) == 0 {
		return nil
	}
	out := &SeriesJSON{Columns: s.Columns, Dropped: s.Dropped}
	for _, p := range s.Points {
		out.Points = append(out.Points, SeriesPointJSON{T: p.At.Seconds(), Values: p.Values})
	}
	return out
}

// ObsJSON is the run-level observability section: the final metrics
// exposition plus the sampled event and span records.
type ObsJSON struct {
	Exposition string   `json:"exposition"`
	Events     []string `json:"events,omitempty"`
	Spans      []string `json:"spans,omitempty"`
}

// NetJSON encodes the network counter delta of a phase (or run).
type NetJSON struct {
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
	Drops     uint64 `json:"drops"`
	Bytes     uint64 `json:"bytes"`
}

func netJSON(s simnet.Stats) NetJSON {
	return NetJSON{Sent: s.Sent, Delivered: s.Delivered, Drops: sweepDrops(s), Bytes: s.Bytes}
}

// ReportJSON is a scenario report's machine-readable form.
type ReportJSON struct {
	Scenario string      `json:"scenario"`
	Protocol string      `json:"protocol"`
	Seed     int64       `json:"seed"`
	Nodes    int         `json:"nodes"`
	Settle   string      `json:"settle"`
	End      string      `json:"end"`
	Total    string      `json:"total"`
	Events   int         `json:"events_run"`
	Phases   []PhaseJSON `json:"phases"`
	Final    NetJSON     `json:"final"`
	Obs      *ObsJSON    `json:"obs,omitempty"`
	// Sites is the per-site table of a scenario with sites; absent
	// otherwise, so every other report encodes byte-identically.
	Sites []SiteJSON `json:"sites,omitempty"`
}

// SiteJSON is one encoded row of the per-site table.
type SiteJSON struct {
	Site        int     `json:"site"`
	Members     int     `json:"members"`
	Received    int     `json:"received"`
	MeanLatency float64 `json:"mean_latency_ms"`
	MeanStretch float64 `json:"mean_stretch"`
}

// Stat decodes the row back into the engine's form, for
// scenario.FormatSites. The latency round-trips exactly: both forms carry
// whole microseconds.
func (s SiteJSON) Stat() scenario.SiteStat {
	return scenario.SiteStat{
		Site:        s.Site,
		Members:     s.Members,
		Received:    s.Received,
		MeanLatency: time.Duration(math.Round(s.MeanLatency*1000)) * time.Microsecond,
		MeanStretch: s.MeanStretch,
	}
}

// EncodeReport reduces a report to its JSON form.
func EncodeReport(r *scenario.Report) *ReportJSON {
	out := &ReportJSON{
		Scenario: r.Scenario,
		Protocol: r.Protocol,
		Seed:     r.Seed,
		Nodes:    r.Nodes,
		Settle:   r.Settle.String(),
		End:      r.End.String(),
		Total:    r.Total.String(),
		Events:   r.EventsRun,
		Final:    netJSON(r.Final),
	}
	for _, p := range r.Phases {
		pj := PhaseJSON{
			Name:         p.Name,
			Start:        p.Start.String(),
			End:          p.End.String(),
			LiveNodes:    p.LiveNodes,
			OpsSent:      p.OpsSent,
			OpsDelivered: p.OpsDelivered,
			OpsSkipped:   p.OpsSkipped,
			OpsForwarded: p.OpsForwarded,
			MeanLatency:  float64(p.MeanLatency.Microseconds()) / 1000,
			MeanHops:     p.MeanHops,
			CtlMsgs:      p.CtlMsgs,
			CtlBytes:     p.CtlBytes,
			Net:          netJSON(p.Net),
		}
		if p.OpsSent > 0 {
			pj.DeliveryPct = 100 * float64(p.OpsDelivered) / float64(p.OpsSent)
		}
		if p.Obs != nil {
			pj.Obs = &PhaseObsJSON{
				Latency: histJSON(p.Obs.Latency),
				Hops:    histJSON(p.Obs.Hops),
				Series:  seriesJSON(p.Obs.Series),
			}
		}
		pj.Checks = p.Checks
		out.Phases = append(out.Phases, pj)
	}
	for _, st := range r.Sites {
		out.Sites = append(out.Sites, SiteJSON{
			Site:        st.Site,
			Members:     st.Members,
			Received:    st.Received,
			MeanLatency: float64(st.MeanLatency.Microseconds()) / 1000,
			MeanStretch: st.MeanStretch,
		})
	}
	if r.Obs != nil {
		out.Obs = &ObsJSON{Exposition: r.Obs.Exposition, Events: r.Obs.Events, Spans: r.Obs.Spans}
	}
	return out
}

// ReportToJSON renders a report as indented JSON.
func ReportToJSON(r *scenario.Report) ([]byte, error) {
	return json.MarshalIndent(EncodeReport(r), "", "  ")
}

// SweepVariantJSON is one sweep variant's encoded result.
type SweepVariantJSON struct {
	Name         string      `json:"name"`
	Protocol     string      `json:"protocol"`
	SharedPrefix bool        `json:"shared_prefix"`
	Report       *ReportJSON `json:"report"`
}

// SweepJSON is a sweep's machine-readable form. Wall-clock timings are
// deliberately absent: like SweepTable, the encoding is deterministic.
type SweepJSON struct {
	Name     string             `json:"name"`
	ForkAt   string             `json:"fork_at,omitempty"`
	Groups   int                `json:"groups"`
	Variants []SweepVariantJSON `json:"variants"`
}

// EncodeSweep reduces a sweep report to its JSON form.
func EncodeSweep(rep *scenario.SweepReport) *SweepJSON {
	out := &SweepJSON{Name: rep.Name, Groups: rep.Groups}
	if rep.ForkAt > 0 {
		out.ForkAt = rep.ForkAt.String()
	}
	for _, vr := range rep.Results {
		out.Variants = append(out.Variants, SweepVariantJSON{
			Name:         vr.Name,
			Protocol:     vr.Protocol,
			SharedPrefix: vr.SharedPrefix,
			Report:       EncodeReport(vr.Report),
		})
	}
	return out
}

// SweepToJSON renders a sweep report as indented JSON.
func SweepToJSON(rep *scenario.SweepReport) ([]byte, error) {
	return json.MarshalIndent(EncodeSweep(rep), "", "  ")
}
