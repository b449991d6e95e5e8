// Pipeline: the paper's data plumbing end to end, through real wire formats.
// A simulated Internet's collector view is archived as a RouteViews-style
// MRT dump and re-imported; the RPKI repositories are validated and the
// resulting VRPs delivered over the RPKI-to-Router protocol (RFC 8210); the
// two sides are joined to select the exclusively-invalid test prefixes that
// seed a measurement round.
//
//	go run ./examples/pipeline
package main

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"sort"

	"github.com/netsec-lab/rovista"
	"github.com/netsec-lab/rovista/internal/mrt"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/rtr"
)

func main() {
	w, err := rovista.BuildWorld(rovista.SmallWorldConfig(5))
	if err != nil {
		log.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		log.Fatal(err)
	}

	// 1. Archive the collector's view as MRT (what RouteViews publishes).
	view := w.Collector.Snapshot(w.Graph)
	var archive bytes.Buffer
	if err := mrt.WriteView(&archive, w.Collector.Name, view, w.Collector.Feeders, 1700000000); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MRT archive: %d bytes for %d prefixes from %d feeders\n",
		archive.Len(), len(view.Prefixes()), len(w.Collector.Feeders))

	// 2. Re-import the archive, as the paper's pipeline ingests dumps.
	dump, err := mrt.ReadDump(&archive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-imported: %d observations, collector %q\n", len(dump.Observations()), dump.CollectorName)

	// 3. Deliver the relying party's VRPs over a real RTR session.
	cache := rtr.NewCache(1)
	cache.Update(w.VRPs)
	serverConn, clientConn := net.Pipe()
	go cache.Serve(serverConn)
	router := rtr.NewClient(clientConn)
	if err := router.Reset(); err != nil {
		log.Fatal(err)
	}
	vrps := router.VRPSet()
	fmt.Printf("RTR session: synced %d VRPs at serial %d\n", router.Len(), router.Serial())

	// 4. Join: find the exclusively-invalid prefixes (the test prefixes).
	byPrefix := map[string]struct {
		obs        int
		allInvalid bool
	}{}
	for _, o := range dump.Observations() {
		e := byPrefix[o.Prefix.String()]
		if e.obs == 0 {
			e.allInvalid = true
		}
		e.obs++
		if vrps.Validate(o.Prefix, o.Origin()) != rpki.Invalid {
			e.allInvalid = false
		}
		byPrefix[o.Prefix.String()] = e
	}
	var tests []string
	for p, e := range byPrefix {
		if e.allInvalid {
			tests = append(tests, p)
		}
	}
	sort.Strings(tests)
	fmt.Println("exclusively-invalid test prefixes recovered from the archive:")
	for _, p := range tests {
		fmt.Printf("  %s (%d observations)\n", p, byPrefix[p].obs)
	}
	fmt.Printf("\n%d test prefixes — the inputs §4.1 scans for tNodes.\n", len(tests))
}
