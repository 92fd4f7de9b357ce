// Package obs is the observability plane: a zero-dependency metrics
// registry with Prometheus text-format exposition, a sampled structured
// event log, and end-to-end operation traces built from per-hop span
// records. It is the one instrumentation layer both execution backends
// report through — the
// virtual-time scenario engine snapshots a registry at phase boundaries,
// and `macedon agent` serves the same families over HTTP for `macedon
// deploy` to scrape and aggregate (docs/observability.md).
//
// Everything in the package is deterministic where the substrate is:
// counters and histogram buckets only ever accumulate by commutative
// atomic adds, exposition output is sorted, histogram sums are kept in
// integer nano-units so no float-addition order dependence can leak into
// golden output, and the samplers used by the emulated backend decide by
// key hash, never by arrival order.
package obs

// splitmix64 is the avalanche mixer used wherever the package needs a
// deterministic, order-independent hash of a small integer key (trace IDs,
// key-based sampling decisions). It is the same construction the simnet
// uses for per-link loss processes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
