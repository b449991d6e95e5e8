// Command worldgen generates a synthetic AS-level Internet and describes
// it: tier composition, customer cones, RPKI adoption schedule, invalid
// announcements, and host population. Useful for inspecting what the
// measurement pipelines run against.
//
// Usage:
//
//	worldgen [-seed N] [-size small|smoke|medium|large|10k|50k|74k] [-workers N] [-ranks K]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/mrt"
	"github.com/netsec-lab/rovista/internal/topology"
)

func main() {
	seed := flag.Int64("seed", 1, "generation seed")
	size := flag.String("size", "small", "world size: small, smoke, medium, large, 10k, 50k or 74k (alias: full)")
	workers := flag.Int("workers", 0, "build workers (0 = GOMAXPROCS); any count builds the identical world")
	ranks := flag.Int("ranks", 15, "print the top K ranked ASes")
	mrtOut := flag.String("mrt", "", "write the day-0 collector view as an MRT TABLE_DUMP_V2 archive to this file")
	flag.Parse()

	var cfg core.WorldConfig
	switch *size {
	case "10k":
		cfg = core.LargeWorldConfig(*seed, 10_000)
	case "50k":
		cfg = core.LargeWorldConfig(*seed, 50_000)
	case "74k", "full":
		cfg = core.FullInternetConfig(*seed)
	default:
		var err error
		if cfg, err = core.WorldConfigByName(*size, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "worldgen: %v (or 10k, 50k, 74k)\n", err)
			os.Exit(2)
		}
	}
	cfg.BuildWorkers = *workers

	w, err := core.BuildWorld(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "worldgen:", err)
		os.Exit(1)
	}

	tiers := map[topology.Tier]int{}
	for _, asn := range w.Topo.ASNs {
		tiers[w.Topo.Info[asn].Tier]++
	}
	fmt.Printf("world seed %d (%s): %d ASes (%d tier-1, %d tier-2, %d tier-3, %d stubs), %d hosts\n",
		*seed, *size, len(w.Topo.ASNs),
		tiers[topology.Tier1], tiers[topology.Tier2], tiers[topology.Tier3], tiers[topology.Stub],
		w.Net.Hosts())

	deployers := map[string]int{}
	leaks := 0
	for _, tr := range w.Truth {
		if tr.DeployDay >= 0 {
			deployers[tr.Kind]++
		}
		if tr.DefaultLeak {
			leaks++
		}
	}
	fmt.Printf("ROV schedule: %v deployers over %d days; %d default-route leaks\n", deployers, cfg.Days, leaks)

	fmt.Printf("invalid announcements: %d total\n", len(w.Invalids))
	for _, inv := range w.Invalids {
		kind := "unannounced-space"
		if inv.Shared {
			kind = "shared-with-victim"
		} else if inv.Covered {
			kind = "covered-by-victim"
		}
		fmt.Printf("  %v announced by %v (victim %v, days %d-%d, %s)\n",
			inv.Prefix, inv.Origin, inv.Victim, inv.StartDay, inv.EndDay, kind)
	}

	if *mrtOut != "" {
		if err := w.AdvanceTo(0); err != nil {
			fmt.Fprintln(os.Stderr, "worldgen:", err)
			os.Exit(1)
		}
		f, err := os.Create(*mrtOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "worldgen:", err)
			os.Exit(1)
		}
		view := w.Collector.Snapshot(w.Graph)
		if err := mrt.WriteView(f, w.Collector.Name, view, w.Collector.Feeders, 0); err != nil {
			fmt.Fprintln(os.Stderr, "worldgen:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "worldgen:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote MRT archive with %d prefixes to %s\n", len(view.Prefixes()), *mrtOut)
	}

	fmt.Printf("\ntop %d ASes by customer cone:\n", *ranks)
	fmt.Printf("%6s %10s %8s %6s %10s %20s\n", "rank", "ASN", "tier", "cone", "RIR", "ROV schedule")
	for i, asn := range w.Topo.ByRank() {
		if i >= *ranks {
			break
		}
		info := w.Topo.Info[asn]
		tr := w.Truth[asn]
		sched := "never"
		if tr.DeployDay >= 0 {
			sched = fmt.Sprintf("%s@day%d", tr.Kind, tr.DeployDay)
			if tr.RollbackDay > 0 {
				sched += fmt.Sprintf(" (rolled back day %d)", tr.RollbackDay)
			}
		}
		fmt.Printf("%6d %10v %8v %6d %10v %20s\n", info.Rank, asn, info.Tier, info.ConeSize, info.RIR, sched)
	}
}
