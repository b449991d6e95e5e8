// Package faults defines the seeded fault-injection model beneath the
// measurement pipeline's robustness story. RoVista's inference rests on a
// noisy side channel — §4 of the paper is largely about filtering out vVPs
// with unstable IP-ID counters, retrying probes, and discarding rounds
// polluted by cross traffic — so a reproduction that only models clean
// networks cannot say anything about how the scores survive realistic
// impairments. A Profile is pure data: per-link packet impairments,
// remote-host response rate limiting, IP-ID counter perturbations, vVP
// churn, and transient BGP flaps. The consumers (internal/netsim for the
// wire and hosts, internal/core for churn and the round driver) draw every
// fault decision from seeds derived with internal/seedmix, so a fixed-seed
// run is bit-for-bit deterministic — including its faults — at any worker
// count.
//
// The package deliberately imports nothing above internal/seedmix: netsim
// composes a Profile into the Network, and the fault model must not know
// what a network is.
package faults

import (
	"fmt"
	"strings"

	"github.com/netsec-lab/rovista/internal/seedmix"
)

// Stream identifiers for seed derivation. Each independent fault decision
// mixes one of these into its seed so the streams cannot collide with each
// other or with the measurement pipeline's own derivations.
const (
	// StreamArm derives the network-level fault seed from the round seed.
	StreamArm int64 = 0x0fa0171
	// StreamSplit decides per-host split-counter assignment (keyed by host
	// address, so the decision is a stable host property).
	StreamSplit int64 = 0x0fa0172
	// StreamClone perturbs per-measurement host clones (counter resets).
	StreamClone int64 = 0x0fa0173
	// StreamChurn decides per-vVP disappearance between qualification and
	// measurement (keyed by host address).
	StreamChurn int64 = 0x0fa0174
	// StreamRequalify seeds the post-round re-qualification scans.
	StreamRequalify int64 = 0x0fa0175
)

// Profile is one named set of fault-injection knobs. The zero value injects
// nothing; all probabilities are in [0, 1] and all rates are per second of
// virtual time.
type Profile struct {
	// Name identifies the profile in metrics and reports.
	Name string

	// Link-level impairments, applied per transmitted packet by the
	// discrete-event simulator.

	// LinkLossPerHop is an independent per-hop drop probability; a packet
	// crossing an n-AS path survives with (1-p)^n.
	LinkLossPerHop float64
	// ReorderProb is the probability a packet picks up ReorderDelay extra
	// seconds of latency (uniform in (0, ReorderDelay]), enough to overtake
	// later packets — the §4.2 reordering concern.
	ReorderProb  float64
	ReorderDelay float64
	// DupProb duplicates a delivered packet (the copy arrives ReorderDelay/2
	// later at most).
	DupProb float64

	// Remote-host response rate limiting: hosts refuse to emit automaton
	// responses (SYN-ACKs, RSTs — the ICMP-style limits real stacks apply)
	// beyond a token bucket of RateLimitBurst tokens refilled at
	// RateLimitPPS per second. 0 disables.
	RateLimitPPS   float64
	RateLimitBurst int

	// IP-ID counter perturbations.

	// CrossTrafficFactor scales every host's background rate by (1+factor):
	// cross traffic the operator of the vVP never told us about.
	CrossTrafficFactor float64
	// CrossBurstProb adds, per background advance, a burst of up to
	// CrossBurstMax extra packets to the host's global counter.
	CrossBurstProb float64
	CrossBurstMax  int
	// SplitCounterProb is the per-host probability (stable in the host
	// address) that a global-counter host actually keeps SplitWays per-CPU
	// counters — the §4 "unstable counter" population the scans must reject.
	SplitCounterProb float64
	SplitWays        int
	// ResetProb is the per-measurement probability that the observed host's
	// counter resets (reboot, counter re-key) after a uniform 1..ResetMaxPackets
	// further transmissions mid-round.
	ResetProb       float64
	ResetMaxPackets int

	// ChurnProb is the per-vVP probability that the host disappears between
	// qualification and measurement — the paper's daily scans routinely lost
	// vantage points. The draw keys on (fault seed, StreamChurn, address)
	// alone and the profile is armed once per world, so the same vVPs churn
	// in every round while the profile stays armed.
	ChurnProb float64

	// Transient BGP flaps.

	// FlapProb is the per-measurement probability that a flap blackholes the
	// forwarding plane for FlapDuration seconds starting uniformly inside
	// [0, FlapSpan).
	FlapProb     float64
	FlapDuration float64
	FlapSpan     float64
}

// Enabled reports whether the profile injects anything at all.
func (p Profile) Enabled() bool {
	return p.LinkLossPerHop > 0 || p.ReorderProb > 0 || p.DupProb > 0 ||
		p.RateLimitPPS > 0 || p.CrossTrafficFactor > 0 || p.CrossBurstProb > 0 ||
		p.SplitCounterProb > 0 || p.ResetProb > 0 || p.ChurnProb > 0 ||
		p.FlapProb > 0
}

// None returns the empty profile: a clean network.
func None() Profile { return Profile{Name: "none"} }

// Paper returns impairments at the rates the paper's methodology treats as
// normal operating conditions: a few tenths of a percent of per-link loss,
// occasional reordering, moderate cross traffic, a minority of hosts with
// per-CPU counters, and a few percent of vantage churn and route flaps. The
// robustness harness requires ROV classification F1 ≥ 0.80 here.
func Paper() Profile {
	return Profile{
		Name:               "paper",
		LinkLossPerHop:     0.002,
		ReorderProb:        0.01,
		ReorderDelay:       0.3,
		DupProb:            0.002,
		RateLimitPPS:       6,
		RateLimitBurst:     14,
		CrossTrafficFactor: 0.5,
		CrossBurstProb:     0.02,
		CrossBurstMax:      4,
		SplitCounterProb:   0.15,
		SplitWays:          2,
		ResetProb:          0.02,
		ResetMaxPackets:    20,
		ChurnProb:          0.05,
		FlapProb:           0.02,
		FlapDuration:       1.5,
		FlapSpan:           12,
	}
}

// Harsh returns a deliberately punitive profile — several times the paper's
// rates plus tight rate limits. The harness does not require accuracy here,
// only graceful degradation: coverage collapses and discard counters light
// up, but surviving scores stay sane and no fully-ROV AS is silently
// flipped to "unprotected".
func Harsh() Profile {
	return Profile{
		Name:               "harsh",
		LinkLossPerHop:     0.01,
		ReorderProb:        0.05,
		ReorderDelay:       0.6,
		DupProb:            0.01,
		RateLimitPPS:       3,
		RateLimitBurst:     10,
		CrossTrafficFactor: 2,
		CrossBurstProb:     0.10,
		CrossBurstMax:      8,
		SplitCounterProb:   0.30,
		SplitWays:          4,
		ResetProb:          0.10,
		ResetMaxPackets:    12,
		ChurnProb:          0.15,
		FlapProb:           0.10,
		FlapDuration:       3,
		FlapSpan:           12,
	}
}

// ByName resolves a profile name (the cmd/rovista -faults values).
func ByName(name string) (Profile, error) {
	switch name {
	case "", "none":
		return None(), nil
	case "paper":
		return Paper(), nil
	case "harsh":
		return Harsh(), nil
	default:
		return Profile{}, fmt.Errorf("faults: unknown profile %q (want one of %s)", name, strings.Join(Names(), ", "))
	}
}

// Names lists the selectable profiles in escalation order.
func Names() []string { return []string{"none", "paper", "harsh"} }

// Bernoulli draws a deterministic biased coin for the given probability from
// the mixed seed parts — the primitive beneath every stable (address-keyed)
// fault decision. The top 53 bits of the mix give a uniform in [0, 1).
func Bernoulli(prob float64, parts ...int64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	u := float64(uint64(seedmix.Mix(parts...))>>11) / (1 << 53)
	return u < prob
}

// Confusion accumulates a binary-classification tally; the robustness
// harness scores measured "protected" verdicts against data-plane ground
// truth with it.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one (truth, predicted) observation.
func (c *Confusion) Add(truth, pred bool) {
	switch {
	case truth && pred:
		c.TP++
	case !truth && pred:
		c.FP++
	case truth && !pred:
		c.FN++
	default:
		c.TN++
	}
}

// Total returns the number of recorded observations.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// F1 returns the harmonic mean of precision and recall for the positive
// class; 0 when undefined (no positive predictions or truths).
func (c Confusion) F1() float64 {
	denom := 2*c.TP + c.FP + c.FN
	if denom == 0 {
		return 0
	}
	return 2 * float64(c.TP) / float64(denom)
}

// Accuracy returns the fraction of correct predictions (0 when empty).
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}
