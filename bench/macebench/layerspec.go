package main

import "fmt"

// layerSpec names one per-layer metric. Per-layer metrics carry no bound:
// they explain a movement of an end-to-end metric, they do not gate one.
// README.md says which end-to-end metric each should move, on which
// workload.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayer lists every per-layer metric a traced run reports, in report
// order: first the isolated drivers' (the same for every workload), then
// those read from the workload's traced job. BENCHMARK.json carries the
// same list.
var perLayer = []layerSpec{
	// Isolated drivers.
	{"topology.inet_build_ms", "ms", "lower"},
	{"topology.route_cold_us", "us", "lower"},
	{"topology.route_cached_ns", "ns", "lower"},
	{"topology.partition_latency_ms", "ms", "lower"},
	{"simnet.sched_ns_per_event", "ns", "lower"},
	{"simnet.sched_allocs_per_event", "count", "lower"},
	{"simnet.sched_ns_per_event_sh2", "ns", "lower"},
	{"simnet.net_ns_per_pkt_hop", "ns", "lower"},
	{"simnet.net_allocs_per_pkt", "count", "lower"},
	{"simnet.net_ns_per_pkt_hop_1k", "ns", "lower"},
	{"simnet.snapshot_ms", "ms", "lower"},
	{"simnet.restore_ms", "ms", "lower"},
	{"transport.udp_ns_per_frame", "ns", "lower"},
	{"transport.udp_allocs_per_frame", "count", "lower"},
	{"transport.tcp_ns_per_kb", "ns", "lower"},
	{"transport.tcp_allocs_per_kb", "count", "lower"},
	{"transport.tcp_lossy_ns_per_kb", "ns", "lower"},
	{"core.dispatch_ns", "ns", "lower"},
	{"core.dispatch_allocs", "count", "lower"},
	{"core.msg_ns", "ns", "lower"},
	{"core.msg_allocs", "count", "lower"},
	{"core.timer_ns", "ns", "lower"},
	{"core.spawn_us_per_node", "us", "lower"},
	{"overlay.encode_ns_small", "ns", "lower"},
	{"overlay.decode_ns_small", "ns", "lower"},
	{"overlay.codec_allocs_small", "count", "lower"},
	{"overlay.encode_ns_1k", "ns", "lower"},
	{"overlay.decode_ns_1k", "ns", "lower"},
	{"overlay.codec_allocs_1k", "count", "lower"},
	{"overlay.hash_address_ns", "ns", "lower"},
	{"statecopy.capture_us_per_node", "us", "lower"},
	{"statecopy.capture_allocs_per_node", "count", "lower"},
	{"statecopy.restore_us_per_node", "us", "lower"},
	{"harness.cluster_build_ms", "ms", "lower"},
	{"harness.fork_speedup", "ratio", "higher"},
	{"harness.fork_cold_wall_s", "s", "lower"},
	{"harness.report_ms", "ms", "lower"},
	{"scenario.compile_ms", "ms", "lower"},
	{"scenario.ops", "count", "lower"},
	{"obs.counter_inc_ns", "ns", "lower"},
	{"obs.hist_observe_ns", "ns", "lower"},
	{"obs.text_us", "us", "lower"},
	{"obs.parse_text_us", "us", "lower"},
	{"dsl.parse_us_per_spec", "us", "lower"},
	{"codegen.generate_us_per_spec", "us", "lower"},

	// The workload's traced job and its companion jobs.
	{"simnet.events", "count", "lower"},
	{"simnet.events_per_s", "1/s", "higher"},
	{"simnet.allocs_per_event", "count", "lower"},
	{"simnet.barrier_stall_ratio", "ratio", "lower"},
	{"simnet.window_utilization", "1/s", "higher"},
	{"simnet.heap_depth", "count", "lower"},
	{"simnet.pool_recycle_ratio", "ratio", "higher"},
	{"simnet.pkt_drop_ratio", "ratio", "lower"},
	{"simnet.latency_partitioner_wall_s", "s", "lower"},
	{"core.msgs_sent", "count", "lower"},
	{"core.bytes_sent", "count", "lower"},
	{"overlays.hand_vs_gen_wall_ratio", "ratio", "higher"},
	{"obs.run_overhead_ratio", "ratio", "lower"},
	{"topology.cpu_share", "ratio", "lower"},
	{"simnet.cpu_share", "ratio", "lower"},
	{"transport.cpu_share", "ratio", "lower"},
	{"core.cpu_share", "ratio", "lower"},
	{"overlay.cpu_share", "ratio", "lower"},
	{"overlays.cpu_share", "ratio", "lower"},
	{"statecopy.cpu_share", "ratio", "lower"},
	{"harness.cpu_share", "ratio", "lower"},
	{"obs.cpu_share", "ratio", "lower"},
	{"runtime.cpu_share", "ratio", "lower"},
	{"other.cpu_share", "ratio", "lower"},
}

// layerMetric is one measured per-layer number.
type layerMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// layerValue builds a measured value of a declared per-layer metric. An
// undeclared name is a bug in the benchmark.
func layerValue(name string, v float64) layerMetric {
	for _, s := range perLayer {
		if s.Name == name {
			return layerMetric{name, s.Unit, v}
		}
	}
	panic("macebench: per-layer metric " + name + " is not declared in perLayer")
}

// checkPerLayer verifies that a traced run reported every declared
// per-layer metric exactly once.
func checkPerLayer(ms []layerMetric) error {
	seen := map[string]int{}
	for _, m := range ms {
		seen[m.Name]++
	}
	for _, s := range perLayer {
		if seen[s.Name] != 1 {
			return fmt.Errorf("per-layer metric %s reported %d times, want once", s.Name, seen[s.Name])
		}
	}
	if len(ms) != len(perLayer) {
		return fmt.Errorf("%d per-layer metrics reported, %d declared", len(ms), len(perLayer))
	}
	return nil
}
