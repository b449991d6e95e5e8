// Command rovista builds a simulated Internet, runs one full RoVista
// measurement round at a chosen day, and prints per-AS ROV protection
// scores — the same pipeline the paper ran daily for 20 months.
//
// Usage:
//
//	rovista [-seed N] [-day D] [-size small|smoke|medium|large] [-top K] [-v]
//	        [-workers N] [-faults none|paper|harsh] [-progress] [-timings]
//	        [-rounds N] [-interval D] [-campaign N]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// With -rounds N (N > 1) the command runs a longitudinal loop instead of a
// single round: N rounds every -interval days starting at -day (default 0).
// With -campaign N it additionally schedules N seeded attacks (origin and
// subprefix hijacks, route leaks, forged-origin spoofs) across those rounds
// and reports each AS's observed protection as the paper's
// collateral-benefit/damage quadrants, cross-checked against the measured
// scores.
// SIGINT/SIGTERM interrupt the loop at the next round boundary; completed
// rounds are flushed normally and the exit code is 0 — partial longitudinal
// data is a valid result, not a failure.
//
// Every round, in every mode, runs through stream.LiveSink and its round
// monitor; a round that fails the monitor makes the command exit 1 with the
// monitor's message instead of printing the final results.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"

	"github.com/netsec-lab/rovista/internal/campaign"
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/export"
	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/stream"
)

// fail reports err and exits 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "rovista:", err)
	os.Exit(1)
}

func main() {
	seed := flag.Int64("seed", 1, "world generation seed")
	day := flag.Int("day", -1, "measurement day (default: last day of the timeline)")
	size := flag.String("size", "small", "world size: small, smoke, medium or large")
	top := flag.Int("top", 25, "print the top K scored ASes (0 = all)")
	verbose := flag.Bool("v", false, "print per-AS details")
	format := flag.String("format", "table", "output format: table, json or csv")
	workers := flag.Int("workers", 0, "pair-measurement workers (0 = all CPUs, 1 = serial; results are identical for any value)")
	faultsName := flag.String("faults", "none", "fault-injection profile: "+strings.Join(faults.Names(), ", "))
	progress := flag.Bool("progress", false, "print per-stage progress to stderr")
	timings := flag.Bool("timings", false, "print per-stage wall-clock timings and pair counters to stderr")
	rounds := flag.Int("rounds", 1, "measurement rounds to run (>1 switches to the longitudinal loop)")
	interval := flag.Int("interval", 5, "simulated days between rounds in -rounds mode")
	campaignN := flag.Int("campaign", 0, "schedule N seeded attacks across the rounds and report protection quadrants")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rovista:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rovista:", err)
			}
		}()
	}

	w, rcfg, err := core.BuildNamed(*size, *seed, *faultsName, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rovista:", err)
		os.Exit(2)
	}
	if *progress {
		rcfg.Progress = func(stage string, done, total int) {
			fmt.Fprintf(os.Stderr, "\r%-16s %d/%d", stage, done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	runner := core.NewRunner(w, rcfg)
	sink := &stream.LiveSink{W: w, Runner: runner}

	var snap *core.Snapshot
	if *campaignN > 0 {
		ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSig()
		start := *day
		if start < 0 {
			start = 0
		}
		ccfg := campaign.DefaultConfig(*seed)
		ccfg.Rounds = *rounds
		ccfg.Interval = *interval
		ccfg.StartDay = start
		ccfg.Attacks = *campaignN
		rep, err := campaign.New(w, runner, ccfg).Run(ctx)
		if err != nil {
			fail(err)
		}
		if len(rep.Timeline.Snapshots) == 0 {
			return // interrupted before the first round completed
		}
		if *format == "table" {
			fmt.Printf("campaign: %d attacks scheduled over %d rounds (%d launches skipped)\n",
				len(rep.Schedule), *rounds, len(rep.SkippedLaunches))
			for i, s := range rep.Schedule {
				fmt.Printf("  #%-2d rounds [%d,%d): %v\n", i, s.Start, s.End, s.Attack)
			}
			fmt.Printf("\nprotection quadrants (per AS x active attack x round):\n")
			for q := campaign.DamageAvoided; q <= campaign.Exposed; q++ {
				fmt.Printf("  %-19s %6d\n", q.String(), rep.Quadrants[q])
			}
			fmt.Printf("\nmeasured-score vs data-plane oracle: F1=%.3f accuracy=%.3f over %d (AS,round) checks\n",
				rep.F1, rep.Accuracy, rep.Confusion.Total())
			fmt.Printf("\nfinal round (day %d):\n", rep.Timeline.Days[len(rep.Timeline.Days)-1])
		}
		snap = rep.Timeline.Snapshots[len(rep.Timeline.Snapshots)-1]
	} else if *rounds > 1 {
		// Longitudinal mode: run the sink's day loop under a signal context
		// so ^C flushes completed rounds instead of losing them.
		ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSig()
		start := *day
		if start < 0 {
			start = 0
		}
		if *format == "table" {
			fmt.Printf("world: %d ASes, %d hosts, %d invalid announcements; %d rounds every %d days from day %d\n",
				len(w.Topo.ASNs), w.Net.Hosts(), len(w.Invalids), *rounds, *interval, start)
		}
		tl, err := sink.RunDays(ctx, start, *interval, *rounds)
		if err != nil {
			fail(err)
		}
		if len(tl.Snapshots) < *rounds {
			fmt.Fprintf(os.Stderr, "rovista: interrupted after %d/%d rounds; flushing completed results\n",
				len(tl.Snapshots), *rounds)
		}
		if len(tl.Snapshots) == 0 {
			return // interrupted before the first round completed: nothing to flush
		}
		if *format == "table" {
			fmt.Printf("\n%6s %6s %11s %7s %10s  %s\n", "round", "day", "scored ASes", "full%", "unanimity", "status")
			for i, s := range tl.Snapshots {
				// Computed inline per snapshot: FullProtectionSeries skips
				// empty rounds, so its positional indices drift from the
				// snapshot indices after any degraded round.
				full := 0.0
				if len(s.Reports) > 0 {
					n := 0
					for _, rep := range s.Reports {
						if rep.Score >= 100 {
							n++
						}
					}
					full = 100 * float64(n) / float64(len(s.Reports))
				}
				fmt.Printf("%6d %6d %11d %6.1f%% %9.1f%%  %s\n",
					i, tl.Days[i], len(s.Reports), full, 100*s.ConsistentPairFraction, s.Status)
			}
			fmt.Printf("\nfinal round (day %d):\n", tl.Days[len(tl.Days)-1])
		}
		snap = tl.Snapshots[len(tl.Snapshots)-1]
	} else {
		d := *day
		if d < 0 {
			d = w.Cfg.Days
		}
		if *format == "table" {
			fmt.Printf("world: %d ASes, %d hosts, %d invalid announcements; measuring day %d\n",
				len(w.Topo.ASNs), w.Net.Hosts(), len(w.Invalids), d)
		}
		if err := sink.Apply(core.Msg{Advance: true, Day: d}); err != nil {
			fail(err)
		}
		if snap, err = sink.Round(); err != nil {
			fail(err)
		}
	}
	if err := sink.Healthy(); err != nil {
		fail(err)
	}
	if *timings {
		fmt.Fprint(os.Stderr, snap.Metrics.String())
	}

	switch *format {
	case "json":
		if err := export.FromSnapshot(snap).WriteJSON(os.Stdout); err != nil {
			fail(err)
		}
		return
	case "csv":
		if err := export.FromSnapshot(snap).WriteCSV(os.Stdout); err != nil {
			fail(err)
		}
		return
	case "table":
	default:
		fmt.Fprintf(os.Stderr, "rovista: unknown format %q\n", *format)
		os.Exit(2)
	}

	fmt.Printf("test prefixes: %d; qualified tNodes: %d; vVPs: %d; scored ASes: %d\n",
		snap.TestPrefixes, len(snap.TNodes), snap.AllVVPs, len(snap.Reports))
	if snap.Status.InsufficientData() {
		fmt.Printf("round degraded: %s — scores below reflect partial data, not zero protection\n", snap.Status)
	}
	fmt.Printf("per-(AS,tNode) unanimity: %.1f%%\n", 100*snap.ConsistentPairFraction)

	type row struct {
		asn inet.ASN
		rep *core.ASReport
	}
	rows := make([]row, 0, len(snap.Reports))
	for asn, rep := range snap.Reports {
		rows = append(rows, row{asn, rep})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].rep.Score != rows[j].rep.Score {
			return rows[i].rep.Score > rows[j].rep.Score
		}
		return rows[i].asn < rows[j].asn
	})
	if *top > 0 && len(rows) > *top {
		rows = rows[:*top]
	}
	fmt.Printf("\n%10s %8s %7s %10s %22s\n", "ASN", "score", "vVPs", "tNodes", "ground truth")
	for _, r := range rows {
		truth := w.Truth[r.asn].Kind
		if w.Truth[r.asn].DefaultLeak {
			truth += "+default-leak"
		}
		fmt.Printf("%10v %7.1f%% %7d %6d/%-3d %22s\n",
			r.asn, r.rep.Score, r.rep.VVPs, r.rep.TNodesFiltered, r.rep.TNodesMeasured, truth)
		if *verbose {
			for addr, filtered := range r.rep.Verdicts {
				fmt.Printf("    tNode %v filtered=%v\n", addr, filtered)
			}
		}
	}
}
