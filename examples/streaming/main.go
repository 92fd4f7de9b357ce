// Streaming: a SplitStream forest (16 stripes over Scribe over Pastry)
// carrying a 600 Kbps stream to 60 receivers on the emulator — the workload
// of the paper's Figure 12, as a runnable program.
package main

import (
	"fmt"
	"log"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/metrics"
	"macedon/internal/overlay"
)

func main() {
	cluster, err := harness.NewCluster(harness.ClusterConfig{Nodes: 60, Routers: 300, Seed: 12})
	if err != nil {
		log.Fatal(err)
	}
	// Generated Pastry (cache_ms 0: no cache evictions), Scribe with a
	// fan-out of 16, and SplitStream's 16 stripes.
	stack, err := harness.ScenarioStack("splitstream")
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		log.Fatal(err)
	}
	group := overlay.HashString("video-stream")

	cluster.RunFor(120 * time.Second) // Pastry convergence
	start := cluster.Sched.Now().Add(30 * time.Second)
	series := make(map[overlay.Address]*metrics.BandwidthSeries)
	for _, addr := range cluster.Addrs[1:] {
		bs := metrics.NewBandwidthSeries(start, 10*time.Second)
		series[addr] = bs
		cluster.Nodes[addr].RegisterHandlers(core.Handlers{
			Deliver: func(payload []byte, typ int32, src overlay.Address) {
				bs.Add(cluster.Sched.Now(), len(payload))
			},
		})
		_ = cluster.Nodes[addr].Join(group)
	}
	cluster.RunFor(30 * time.Second) // forest construction

	// Stream 600 Kbps in 1000-byte packets for 60 virtual seconds.
	const rate = 600_000
	const size = 1000
	interval := time.Duration(size * 8 * int(time.Second) / rate)
	src := cluster.Nodes[cluster.Addrs[0]]
	for elapsed := time.Duration(0); elapsed < 60*time.Second; elapsed += interval {
		payload := harness.TimestampPayload(cluster.Sched.Now(), size)
		_ = src.Multicast(group, payload, 1, overlay.PriorityDefault)
		cluster.RunFor(interval)
	}
	cluster.RunFor(5 * time.Second)

	// Report per-bucket average delivered bandwidth.
	fmt.Println("t(s)   avg delivered (Kbps)")
	for b := 0; b < 6; b++ {
		var sum float64
		for _, bs := range series {
			pts := bs.Points()
			if b < len(pts) {
				sum += pts[b].BitsPerSec
			}
		}
		fmt.Printf("%-6d %.0f\n", b*10, sum/float64(len(series))/1000)
	}
	cluster.StopAll()
}
