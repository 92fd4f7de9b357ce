// DHT switch: the paper's headline interoperability demo. The same Scribe
// multicast session runs first over generated Pastry, then over generated
// Chord — the only change is one element of the protocol stack, the Go
// equivalent of editing "protocol scribe uses pastry" to "uses chord" in
// scribe.mac.
package main

import (
	"fmt"
	"log"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/genchord"
	"macedon/internal/overlays/genpastry"
	"macedon/internal/overlays/genscribe"
)

func run(name string, stack []core.Factory) {
	cluster, err := harness.NewCluster(harness.ClusterConfig{Nodes: 16, Routers: 120, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		log.Fatal(err)
	}
	group := overlay.HashString("demo-session")
	received := 0
	// As in the paper's methodology, let the DHT converge by idling the
	// system before the multicast session forms (§4.2.3/§4.2.4).
	cluster.RunFor(2 * time.Minute)
	for _, addr := range cluster.Addrs[1:] {
		cluster.Nodes[addr].RegisterHandlers(core.Handlers{
			Deliver: func(payload []byte, typ int32, src overlay.Address) { received++ },
		})
		_ = cluster.Nodes[addr].Join(group)
	}
	cluster.RunFor(time.Minute) // tree construction
	const packets = 10
	for i := 0; i < packets; i++ {
		_ = cluster.Nodes[cluster.Addrs[0]].Multicast(group, []byte("tick"), 1, overlay.PriorityDefault)
		cluster.RunFor(time.Second)
	}
	cluster.RunFor(10 * time.Second)
	fmt.Printf("scribe over %-7s: %d/%d deliveries to %d members\n",
		name, received, packets*(len(cluster.Addrs)-1), len(cluster.Addrs)-1)
	cluster.StopAll()
}

func main() {
	scribe := func() core.Agent { return &genscribe.Agent{RefreshMs: 5000} }
	// "protocol scribe uses pastry"
	run("pastry", []core.Factory{genpastry.New(), scribe})
	// "protocol scribe uses chord" — the one-line change.
	run("chord", []core.Factory{genchord.New(), scribe})
}
