// Package faults_test holds the metamorphic robustness harness: it measures
// full worlds through internal/core under every fault profile and asserts the
// three headline properties the fault layer exists to check —
//
//  1. fixed-seed rounds are bit-for-bit deterministic, faults included, at
//     any worker count;
//  2. ROV classification stays accurate (F1 against data-plane ground truth)
//     both clean and under the paper-calibrated noise profile;
//  3. no fault profile silently flips a fully-protected AS to "unprotected":
//     a flip is only acceptable when the round's own discard evidence
//     (unusable pairs, retries, dropped vVPs) lights up for that AS.
package faults_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/pipeline"
)

// robustRound builds a world with the profile armed at construction, runs
// one full measurement round (with the countermeasures the armed profile
// turns on), and returns the runner (for oracle scoring) and the snapshot.
func robustRound(t testing.TB, seed int64, prof faults.Profile, workers int) (*core.Runner, *core.Snapshot) {
	t.Helper()
	wcfg := core.SmallWorldConfig(seed)
	wcfg.Faults = prof
	w, err := core.BuildWorld(wcfg)
	if err != nil {
		t.Fatalf("BuildWorld: %v", err)
	}
	if err := w.AdvanceTo(0); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	cfg := core.DefaultRunnerConfig(seed)
	cfg.Workers = workers
	cfg.RecordPairs = true
	r := core.NewRunner(w, cfg)
	return r, r.Measure()
}

// TestRobustnessDeterminismUnderFaults: property 1. The full snapshot —
// reports, raw pair samples, and the fault counters themselves — must be
// identical for any worker count, for every profile.
func TestRobustnessDeterminismUnderFaults(t *testing.T) {
	for _, name := range faults.Names() {
		t.Run(name, func(t *testing.T) {
			prof, err := faults.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			_, serial := robustRound(t, 11, prof, 1)
			_, parallel := robustRound(t, 11, prof, 4)

			sf, pf := serial.Metrics.Faults, parallel.Metrics.Faults
			if sf != pf {
				t.Errorf("fault counters diverged across worker counts:\n serial:   %+v\n parallel: %+v", sf, pf)
			}
			serial.Metrics, parallel.Metrics = nil, nil
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatal("snapshot differs between 1 and 4 workers under faults")
			}
		})
	}
}

// confusionFor accumulates the protected-AS confusion matrix for one round:
// truth is the data-plane oracle (≥50% of tNodes unreachable), prediction is
// the measured report score. ASes the round refused to score (insufficient
// or discarded data) are excluded — refusing is the correct degraded answer
// and is what property 3 checks separately.
func confusionFor(r *core.Runner, snap *core.Snapshot, c *faults.Confusion) {
	for asn, rep := range snap.Reports {
		truth := r.OracleScore(asn, snap.TNodes) >= 50
		c.Add(truth, rep.Score >= 50)
	}
}

// TestRobustnessF1: property 2. Aggregated over a few seeds, classification
// F1 against ground truth must clear 0.90 clean and 0.80 under the paper
// noise profile.
func TestRobustnessF1(t *testing.T) {
	seeds := []int64{5, 11, 17}
	for _, tc := range []struct {
		profile string
		minF1   float64
	}{
		{"none", 0.90},
		{"paper", 0.80},
	} {
		t.Run(tc.profile, func(t *testing.T) {
			prof, err := faults.ByName(tc.profile)
			if err != nil {
				t.Fatal(err)
			}
			var c faults.Confusion
			for _, seed := range seeds {
				r, snap := robustRound(t, seed, prof, 0)
				if snap.Status != pipeline.RoundOK {
					t.Fatalf("seed %d: round degraded: %v", seed, snap.Status)
				}
				confusionFor(r, snap, &c)
			}
			if c.Total() < 10 {
				t.Fatalf("only %d scored ASes across %d seeds — harness too weak to assert F1", c.Total(), len(seeds))
			}
			if f1 := c.F1(); f1 < tc.minF1 {
				t.Fatalf("F1 = %.3f < %.2f (confusion %+v)", f1, tc.minF1, c)
			}
		})
	}
}

// TestRobustnessNoSilentFlips: property 3. Under every fault profile, a
// fully-protected AS (oracle score 100) may only be reported "unprotected"
// (score < 50) when the round's own evidence for that AS lights up:
// unusable or retried pairs among its vVPs, or round-level vVP drops. A
// flip with an entirely clean per-AS evidence trail is the failure mode the
// paper's consistency checks exist to prevent.
func TestRobustnessNoSilentFlips(t *testing.T) {
	for _, name := range []string{"paper", "harsh"} {
		t.Run(name, func(t *testing.T) {
			prof, err := faults.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{5, 11, 17} {
				r, snap := robustRound(t, seed, prof, 0)
				if snap.Status.InsufficientData() {
					continue // a degraded round makes no per-AS claims at all
				}
				vvpsOf := make(map[inet.ASN]map[string]bool)
				for asn, vvps := range snap.VVPsByAS {
					set := make(map[string]bool, len(vvps))
					for _, v := range vvps {
						set[v.Addr.String()] = true
					}
					vvpsOf[asn] = set
				}
				for asn, rep := range snap.Reports {
					if r.OracleScore(asn, snap.TNodes) < 100 || rep.Score >= 50 {
						continue
					}
					// Flip detected: demand per-AS fault evidence.
					evidence := !rep.Unanimous ||
						snap.Metrics.Faults.VVPsDropped > 0
					for _, pr := range snap.PairResults {
						if !vvpsOf[asn][pr.VVP.String()] {
							continue
						}
						if !pr.Usable || pr.Attempts > 1 {
							evidence = true
							break
						}
					}
					if !evidence {
						t.Errorf("seed %d: fully-ROV AS%d flipped to score %.0f with no discard evidence",
							seed, asn, rep.Score)
					}
				}
			}
		})
	}
}

// TestRobustnessSweep is the benchmark harness: it sweeps every profile over
// a few seeds, aggregates accuracy and fault counters, and (when the
// ROBUSTNESS_JSON environment variable names a file) writes the
// BENCH_robustness.json artifact scripts/robustness.sh publishes.
func TestRobustnessSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is the long-form robustness benchmark")
	}
	type row struct {
		Profile     string  `json:"profile"`
		Seeds       int     `json:"seeds"`
		ScoredAS    int     `json:"scored_as"`
		F1          float64 `json:"f1"`
		Accuracy    float64 `json:"accuracy"`
		Retries     int     `json:"pair_retries"`
		Recovered   int     `json:"pairs_recovered"`
		Churned     int     `json:"vvps_churned"`
		Requalified int     `json:"vvps_requalified"`
		Dropped     int     `json:"vvps_dropped"`
	}
	seeds := []int64{5, 11, 17}
	var rows []row
	for _, name := range faults.Names() {
		prof, err := faults.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var c faults.Confusion
		rw := row{Profile: name, Seeds: len(seeds)}
		for _, seed := range seeds {
			r, snap := robustRound(t, seed, prof, 0)
			confusionFor(r, snap, &c)
			fm := snap.Metrics.Faults
			rw.Retries += fm.PairRetries
			rw.Recovered += fm.PairsRecovered
			rw.Churned += fm.VVPsChurned
			rw.Requalified += fm.VVPsRequalified
			rw.Dropped += fm.VVPsDropped
		}
		rw.ScoredAS = c.Total()
		rw.F1 = c.F1()
		rw.Accuracy = c.Accuracy()
		rows = append(rows, rw)
		t.Logf("%-6s scored=%d F1=%.3f acc=%.3f retries=%d recovered=%d churned=%d requalified=%d dropped=%d",
			rw.Profile, rw.ScoredAS, rw.F1, rw.Accuracy, rw.Retries, rw.Recovered, rw.Churned, rw.Requalified, rw.Dropped)
	}
	if path := os.Getenv("ROBUSTNESS_JSON"); path != "" {
		blob, err := json.MarshalIndent(map[string]any{"robustness": rows}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
