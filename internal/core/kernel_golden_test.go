package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/netsec-lab/rovista/internal/detect"
	"github.com/netsec-lab/rovista/internal/faults"
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

// TestPairKernelGolden pins the per-pair simulation kernel against hashes
// recorded before the kernel was rebuilt (event queue, flow table,
// measurement arena, detector scratch). The determinism pins compare the
// tree with itself and would not notice every IP-ID stream shifting
// consistently; these constants do. Two consecutive from-scratch rounds per
// world cover the host-state evolution the live scans cause between rounds;
// the fault profiles cover retries (schedule offsets), flap windows,
// duplicate/reordered deliveries, rate limiting, split and reset counters.
//
// A change that is meant to alter what a pair observes must say so and
// re-record the constants; an optimisation must leave them alone.
func TestPairKernelGolden(t *testing.T) {
	golden := map[int64]map[string]string{
		7: {
			"none":  "7c8f05ac1529609506f4c0b063b85c1141142a6fb48cc4522f5849db840269fb",
			"paper": "a9f811b5a004e6b2b65e98b259387b1b933fba2e8e4658a9a2cc207b2bf7ec5f",
			"harsh": "8545d6719441f7dcc77af647cc0546b1260e427aee1c706bc3c55658ee8bbf99",
		},
		11: {
			"none":  "4d9f41cc18a4898a88ef6252b473b805aefbbb4d68b54ef2259c870fd82a6cae",
			"paper": "fbbf810ff96b5baea95159986e163d1611b51c244f1044b63f1006bf78ec1ef9",
			"harsh": "d48aaf3ddc9c5cccdc08bf4542deff8408eee9a448bbd31235acc9ddad7cae02",
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
			cfg := DefaultRunnerConfig(seed)
			cfg.Incremental = false
			cfg.RecordPairs = true
			cfg.Workers = 2
			if prof.Enabled() {
				cfg.Faults = prof
				cfg.PairRetries = 2
				cfg.RetryBackoff = 2
				cfg.RequalifyVVPs = true
			}
			r := NewRunner(w, cfg)
			first := r.Measure().PairResults
			second := r.Measure().PairResults
			if len(first) == 0 || len(second) == 0 {
				t.Fatalf("seed %d %s: a round measured no pairs", seed, name)
			}
			if got, want := hashPairResults(first, second), golden[seed][name]; got != want {
				t.Errorf("seed %d profile %s: pair-result hash %s, recorded %s", seed, name, got, want)
			}
		}
	}
}
