// Quickstart: build a 20-node Chord ring on the emulator, route a payload
// by key, and watch it arrive at the key's owner — the smallest end-to-end
// MACEDON program.
package main

import (
	"fmt"
	"log"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/chord"
)

func main() {
	// A cluster is a generated INET topology plus the simnet emulator.
	cluster, err := harness.NewCluster(harness.ClusterConfig{
		Nodes: 20, Routers: 150, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Every node runs a one-protocol stack: the Chord agent generated from
	// specs/chord.mac.
	stack := []core.Factory{chord.New()}
	if err := cluster.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		log.Fatal(err)
	}

	// Register the application's deliver handler on every node.
	for _, addr := range cluster.Addrs {
		a := addr
		cluster.Nodes[a].RegisterHandlers(core.Handlers{
			Deliver: func(payload []byte, typ int32, src overlay.Address) {
				fmt.Printf("node %v (key %v) received %q from %v\n",
					a, overlay.HashAddress(a), payload, src)
			},
		})
	}

	// Let the ring stabilize in virtual time (this takes milliseconds of
	// real time), then route.
	cluster.RunFor(60 * time.Second)

	dest := overlay.HashString("hello-world")
	fmt.Printf("routing to key %v from node %v\n", dest, cluster.Addrs[3])
	if err := cluster.Nodes[cluster.Addrs[3]].Route(dest, []byte("hello, overlay"), 1, overlay.PriorityDefault); err != nil {
		log.Fatal(err)
	}
	cluster.RunFor(5 * time.Second)

	c := cluster.Nodes[cluster.Addrs[3]].Counters()
	fmt.Printf("source sent %d messages (%d bytes) total\n", c.MsgsSent, c.BytesSent)
	cluster.StopAll()
}
