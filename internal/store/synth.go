package store

import (
	"math/rand"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/pipeline"
	"github.com/netsec-lab/rovista/internal/seedmix"
)

// SynthConfig shapes a synthetic history.
type SynthConfig struct {
	ASes   int
	Rounds int
	Seed   int64
	// DayStep is the simulated-day gap between rounds (default 5).
	DayStep int
	// ChurnProb is the chance an AS's score moves between rounds; moves
	// are small random walks with occasional full flips, mimicking the
	// slow drift plus deployment jumps real histories show.
	ChurnProb float64
}

// Synthesize fills st with a deterministic pseudo-random history: same
// config (including seed) → byte-identical store. It exists so the serving
// layer can be benchmarked and smoke-tested at any scale without paying for
// world construction, the same way the fault profiles made noise seedable.
func Synthesize(st *Store, cfg SynthConfig) error {
	if cfg.DayStep <= 0 {
		cfg.DayStep = 5
	}
	if cfg.ChurnProb == 0 {
		cfg.ChurnProb = 0.15
	}
	rng := rand.New(seedmix.NewSource(seedmix.Mix(cfg.Seed, 0x5708e)))
	scores := make([]float64, cfg.ASes)
	for i := range scores {
		// Bimodal base population: most ASes unprotected, a protected tail
		// (the paper's Figure-6 shape).
		if rng.Float64() < 0.25 {
			scores[i] = 70 + 30*rng.Float64()
		} else {
			scores[i] = 40 * rng.Float64()
		}
	}
	for r := 0; r < cfg.Rounds; r++ {
		rec := &RoundRecord{
			Day:              r * cfg.DayStep,
			Status:           pipeline.RoundOK,
			TestPrefixes:     8 + rng.Intn(4),
			TNodes:           6 + rng.Intn(6),
			AllVVPs:          cfg.ASes * 2,
			ConsistencyCenti: uint16(9300 + rng.Intn(600)),
			Evidence: Evidence{
				PairsMeasured:  cfg.ASes * 6,
				PairsUsable:    cfg.ASes*6 - rng.Intn(cfg.ASes+1),
				Profile:        "synthetic",
				PairRetries:    rng.Intn(cfg.ASes/4 + 1),
				PairsRecovered: rng.Intn(cfg.ASes/8 + 1),
			},
		}
		rec.Evidence.PairsDiscarded = rec.Evidence.PairsMeasured - rec.Evidence.PairsUsable
		rec.Entries = make([]Entry, 0, cfg.ASes)
		for i := 0; i < cfg.ASes; i++ {
			if r > 0 && rng.Float64() < cfg.ChurnProb {
				if rng.Float64() < 0.05 {
					scores[i] = 100 - scores[i] // deployment / rollback jump
				} else {
					scores[i] += 8 * (rng.Float64() - 0.5)
				}
				if scores[i] < 0 {
					scores[i] = 0
				}
				if scores[i] > 100 {
					scores[i] = 100
				}
			}
			tm := 4 + rng.Intn(8)
			tf := int(float64(tm)*scores[i]/100 + 0.5)
			rec.Entries = append(rec.Entries, Entry{
				ASN:            inet.ASN(1000 + i),
				Centi:          centi(scores[i]),
				VVPs:           uint16(2 + rng.Intn(3)),
				TNodesMeasured: uint32(tm),
				TNodesFiltered: uint32(tf),
				Unanimous:      rng.Float64() > 0.05,
			})
		}
		if err := st.Append(rec); err != nil {
			return err
		}
	}
	return nil
}
