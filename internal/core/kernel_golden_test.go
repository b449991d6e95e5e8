package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"github.com/netsec-lab/rovista/internal/detect"
	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/scan"
	"github.com/netsec-lab/rovista/internal/seedmix"
)

// hashPairResults folds every field of every raw pair result — including
// each IP-ID sample and the bits of each timestamp — into one SHA-256.
func hashPairResults(rounds ...[]detect.PairResult) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	addr := func(a [16]byte) { h.Write(a[:]) }
	for _, prs := range rounds {
		u64(uint64(len(prs)))
		for i := range prs {
			pr := &prs[i]
			addr(pr.VVP.As16())
			addr(pr.TNode.Addr.As16())
			u64(uint64(pr.TNode.ASN))
			u64(uint64(pr.TNode.Port))
			addr(pr.TNode.Prefix.Addr().As16())
			u64(uint64(pr.TNode.Prefix.Bits()))
			u64(uint64(pr.Outcome))
			if pr.Usable {
				u64(1)
			} else {
				u64(0)
			}
			u64(uint64(pr.Attempts))
			u64(math.Float64bits(pr.FNRate))
			u64(uint64(len(pr.IDs)))
			for _, id := range pr.IDs {
				u64(uint64(id))
			}
			u64(uint64(len(pr.Times)))
			for _, ts := range pr.Times {
				u64(math.Float64bits(ts))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPairKernelGolden pins what a whole round measures — the per-pair
// simulation kernel and everything the scans hand it (which hosts qualify as
// tNodes and vVPs, the background-rate estimates behind the cutoff) —
// against committed hashes. The determinism pins compare the tree with
// itself and would not notice every IP-ID stream shifting consistently;
// these constants do. The fault profiles cover retries (schedule offsets),
// flap windows, duplicate/reordered deliveries, rate limiting, split and
// reset counters. Two consecutive from-scratch rounds per world must return
// the same results: nothing a round does changes a live host.
//
// A change that is meant to alter what a pair observes, or what the scans
// find, must say so and re-record the constants (last: a pair's seed names
// its tNode and vVP by address, not by index); an optimisation must leave
// them alone. TestPairKernelFixedGrid below isolates the kernel from the scans.
func TestPairKernelGolden(t *testing.T) {
	golden := map[int64]map[string]string{
		7: {
			"none":  "d2e0cc3af665666854d1b11c26e0c5cc48fc7fde0740524724f3dec9e25e2576",
			"paper": "d26036320af49aaa32a87cc45bc0c0413bb89d83a71f7db7fd43c778ded6b071",
			"harsh": "bea576274afc5690c9870da6759f25e9f0bf0b9a1555aa6911a58eef6828c6e6",
		},
		11: {
			"none":  "76eba49d81cd9ecca20049b853765ece4b958a593002b9ea997abb953bdf4203",
			"paper": "65142d1889ac73c1868369a111577cc784c695e726f8df3801f1b05b055dc0a7",
			"harsh": "b9cb0a3563c24fa04bd995dba42126252be42942dcd30169e3a0226f5cfea129",
		},
	}
	for _, seed := range []int64{7, 11} {
		for _, name := range faults.Names() {
			prof, err := faults.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w, err := BuildWorld(SmallWorldConfig(seed))
			if err != nil {
				t.Fatalf("BuildWorld: %v", err)
			}
			if err := w.AdvanceTo(0); err != nil {
				t.Fatalf("AdvanceTo: %v", err)
			}
			if prof.Enabled() {
				w.Net.ArmFaults(prof, seedmix.Mix(seed, faults.StreamArm))
			}
			cfg := DefaultRunnerConfig(seed)
			cfg.RecordPairs = true
			cfg.Workers = 2
			if name == "harsh" {
				// Harsh cross traffic leaves this small world a handful of
				// vVPs under the background cutoff, rarely two in one AS:
				// measure single-vVP ASes too, or the hash pins an empty grid.
				cfg.MinVVPsPerAS = 1
			}
			r := NewRunner(w, cfg)
			snap := r.Measure()
			first := snap.PairResults
			r.ForceFullRound()
			second := r.Measure().PairResults
			if len(first) == 0 || len(second) == 0 {
				t.Fatalf("seed %d %s: a round measured no pairs", seed, name)
			}
			if f := snap.Metrics.Faults; prof.Enabled() && (f.PairRetries == 0 || f.VVPsUnstable == 0) {
				t.Fatalf("seed %d %s: %d pairs exercised %d retries and %d re-qualifications; the profile is not covering them",
					seed, name, len(first), f.PairRetries, f.VVPsUnstable)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("seed %d profile %s: the same round measured twice gave different pair results", seed, name)
			}
			if got, want := hashPairResults(first, second), golden[seed][name]; got != want {
				t.Errorf("seed %d profile %s: pair-result hash %s, recorded %s", seed, name, got, want)
			}
		}
	}
}

// TestPairKernelFixedGrid pins the pair kernel alone: detect.MeasurePairIsolated
// called directly on a grid no scan feeds — every fifth attached address as the
// vVP, every address under the round's test prefixes as a tNode on port 443,
// seed Mix(vVP index, tNode index) — so the constants move only when the kernel
// (netsim, tcpsim, ipid, detect, timeseries, stats) does. TestPairKernelGolden
// above also covers what the scans hand the grid (which hosts qualify, their
// background-rate estimates) and is re-recorded when the scans change;
// these were recorded before the scans moved onto cloned hosts and held.
func TestPairKernelFixedGrid(t *testing.T) {
	golden := map[int64]map[string]string{
		7: {
			"none":  "272f50ca4abbe8c8ead28e749a6226060cda48bdd35d240fcaee20e95d23d6bc",
			"paper": "edc93d7aedbf45e237f45a8de359e9078031588e196f46a1a5169b05949be902",
			"harsh": "c5267921c35c6a7fa6b11611bb5f52473b33c9f566af04e307689ef993dc7d40",
		},
		11: {
			"none":  "2aa1c890992e54359c8f12a5a26c4088a552a577e768c28af6592448685d6aa9",
			"paper": "f2def20d040b09e59a2f146385e3b51f97b6f19b0cf6e73e46d91fd28b387a0a",
			"harsh": "a7ef2a38d5fc7419b92866be852d9c671e38371b894d490c9ac9befd7161857c",
		},
	}
	for _, seed := range []int64{7, 11} {
		for _, name := range faults.Names() {
			prof, err := faults.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w, err := BuildWorld(SmallWorldConfig(seed))
			if err != nil {
				t.Fatalf("BuildWorld: %v", err)
			}
			if err := w.AdvanceTo(0); err != nil {
				t.Fatalf("AdvanceTo: %v", err)
			}
			if prof.Enabled() {
				w.Net.ArmFaults(prof, seedmix.Mix(seed, faults.StreamArm))
			}
			var tnodes []scan.TNode
			prefixes, _ := NewRunner(w, DefaultRunnerConfig(seed)).testPrefixes()
			for _, p := range prefixes {
				for _, a := range w.Net.AddrsIn(p) {
					h, _ := w.Net.HostAt(a)
					tnodes = append(tnodes, scan.TNode{Addr: a, ASN: h.ASN, Port: 443, Prefix: p})
				}
			}
			var results []detect.PairResult
			all := w.Net.AllAddrs()
			for i := 0; i < len(all); i += 5 {
				if all[i] == w.ClientA.Addr || all[i] == w.ClientB.Addr {
					continue
				}
				for j, tn := range tnodes {
					results = append(results, detect.MeasurePairIsolated(w.Net, w.ClientA, all[i], tn,
						seedmix.Mix(int64(i), int64(j)), 0, true))
				}
			}
			if len(tnodes) == 0 || len(results) == 0 {
				t.Fatalf("seed %d %s: empty grid (%d tNodes)", seed, name, len(tnodes))
			}
			if got, want := hashPairResults(results), golden[seed][name]; got != want {
				t.Errorf("seed %d profile %s: %d pairs, hash %s, recorded %s", seed, name, len(results), got, want)
			}
		}
	}
}
