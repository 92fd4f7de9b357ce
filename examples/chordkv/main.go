// ChordKV: a tiny distributed key-value store over the Chord DHT generated
// from specs/chord.mac, demonstrating the application side of the MACEDON
// API — payload types distinguish PUT and GET, and the routeIP primitive
// carries replies straight back to the requester.
package main

import (
	"fmt"
	"log"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/genchord"
)

// Application payload types.
const (
	typPut = 1 // payload: [addr u32][kv...]
	typGet = 2
	typVal = 3
)

func main() {
	cluster, err := harness.NewCluster(harness.ClusterConfig{Nodes: 25, Routers: 150, Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	stack := []core.Factory{genchord.New()}
	if err := cluster.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		log.Fatal(err)
	}

	// Each node stores the slice of the keyspace it owns.
	stores := make(map[overlay.Address]map[string]string)
	for _, addr := range cluster.Addrs {
		a := addr
		stores[a] = make(map[string]string)
		node := cluster.Nodes[a]
		node.RegisterHandlers(core.Handlers{
			Deliver: func(payload []byte, typ int32, src overlay.Address) {
				switch typ {
				case typPut:
					k, v := splitKV(payload)
					stores[a][k] = v
				case typGet:
					k, _ := splitKV(payload)
					v := stores[a][k]
					_ = node.RouteIP(src, []byte(k+"\x00"+v), typVal, overlay.PriorityDefault)
				case typVal:
					k, v := splitKV(payload)
					fmt.Printf("GET %q -> %q (answered by %v)\n", k, v, src)
				}
			},
		})
	}

	cluster.RunFor(90 * time.Second) // ring stabilization

	put := func(from overlay.Address, k, v string) {
		_ = cluster.Nodes[from].Route(overlay.HashString(k), []byte(k+"\x00"+v), typPut, overlay.PriorityDefault)
	}
	get := func(from overlay.Address, k string) {
		_ = cluster.Nodes[from].Route(overlay.HashString(k), []byte(k+"\x00"), typGet, overlay.PriorityDefault)
	}

	put(cluster.Addrs[2], "macedon", "NSDI 2004")
	put(cluster.Addrs[5], "chord", "SIGCOMM 2001")
	put(cluster.Addrs[9], "pastry", "Middleware 2001")
	cluster.RunFor(5 * time.Second)

	get(cluster.Addrs[17], "macedon")
	get(cluster.Addrs[11], "chord")
	get(cluster.Addrs[3], "pastry")
	cluster.RunFor(5 * time.Second)
	cluster.StopAll()
}

func splitKV(p []byte) (string, string) {
	for i, b := range p {
		if b == 0 {
			return string(p[:i]), string(p[i+1:])
		}
	}
	return string(p), ""
}
