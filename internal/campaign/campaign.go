// Package campaign runs seeded, deterministic attack campaigns against a
// world: typed attacks (origin hijacks, subprefix hijacks, route leaks,
// forged-origin spoofs) scheduled over measurement rounds as coalesced
// bgp.RouteEvent batches, with each AS's *observed* protection — did traffic
// from its cone reach the hijacker? — scored against its measured RoVista
// score. The per-(AS, attack) classification reproduces the paper's
// collateral-benefit/damage quadrants: an AS can be protected without
// deploying ROV (a filtering provider shields it) or exposed despite
// deploying (a forged-origin spoof validates, a customer exemption leaks).
//
// Every round runs through a stream.LiveSink, the one place a round happens:
// the campaign sends its messages through the sink's Apply and measures
// with its Round, round monitor included, so with zero attacks a campaign
// is a day series (stream.LiveSink.RunDays) by construction. The test
// battery pins fixed-seed determinism across worker counts and exact world
// restoration after full teardown.
package campaign

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/hijack"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/stream"
)

// Config parameterizes a campaign.
type Config struct {
	// Seed drives attack scheduling (kinds, victims, windows). The same seed
	// over the same world yields a bit-identical Report at any worker count.
	Seed int64
	// Rounds is the number of measurement rounds; StartDay and Interval step
	// the world's days exactly as stream.LiveSink.RunDays does.
	Rounds   int
	StartDay int
	Interval int
	// Attacks is the number of attack draws (self-targeting draws are
	// discarded, so the schedule may hold slightly fewer).
	Attacks int
	// MaxDuration bounds an attack's active window in rounds (default 3).
	MaxDuration int
	// Kind mix: fractions of subprefix hijacks, route leaks, and
	// forged-origin spoofs; the remainder are exact-prefix origin hijacks.
	// Defaults: 0.25 / 0.2 / 0.2.
	SubprefixFrac, LeakFrac, ForgedFrac float64
	// ScoreThreshold splits "protected" from "unprotected" when comparing
	// measured scores against the data-plane oracle (default 50).
	ScoreThreshold float64
}

// DefaultConfig returns a paper-flavored campaign configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		Rounds:         6,
		StartDay:       0,
		Interval:       5,
		Attacks:        8,
		MaxDuration:    3,
		SubprefixFrac:  0.25,
		LeakFrac:       0.2,
		ForgedFrac:     0.2,
		ScoreThreshold: 50,
	}
}

func (c *Config) defaults() {
	if c.MaxDuration <= 0 {
		c.MaxDuration = 3
	}
	if c.ScoreThreshold == 0 {
		c.ScoreThreshold = 50
	}
}

// Scheduled is one attack with its active round window [Start, End); an
// attack with End == Rounds is torn down by the post-campaign restoration.
type Scheduled struct {
	hijack.Attack
	Start, End int
}

// Quadrant is the per-(AS, attack) protection-outcome classification, the
// paper's collateral-benefit/damage analysis: the deployment axis is ground
// truth (did the AS itself filter at that day), the outcome axis is the data
// plane (did its traffic reach the attacker).
type Quadrant uint8

// Quadrant values.
const (
	// DamageAvoided: the AS deploys ROV and its traffic stayed clean.
	DamageAvoided Quadrant = iota
	// CollateralBenefit: the AS does not deploy, yet its traffic stayed
	// clean — typically a filtering provider shields it.
	CollateralBenefit
	// CollateralDamage: the AS deploys ROV but was diverted anyway —
	// forged-origin spoofs, leaks, and customer exemptions land here.
	CollateralDamage
	// Exposed: no deployment, traffic diverted.
	Exposed
)

// String implements fmt.Stringer.
func (q Quadrant) String() string {
	switch q {
	case DamageAvoided:
		return "damage-avoided"
	case CollateralBenefit:
		return "collateral-benefit"
	case CollateralDamage:
		return "collateral-damage"
	case Exposed:
		return "exposed"
	default:
		return fmt.Sprintf("Quadrant(%d)", uint8(q))
	}
}

// Classify maps the (deployed, exposed) pair to its quadrant.
func Classify(deployed, exposed bool) Quadrant {
	switch {
	case deployed && !exposed:
		return DamageAvoided
	case !deployed && !exposed:
		return CollateralBenefit
	case deployed && exposed:
		return CollateralDamage
	default:
		return Exposed
	}
}

// Observation is one (round, attack, AS) protection outcome.
type Observation struct {
	Round, Day int
	// Attack indexes into Report.Schedule.
	Attack   int
	ASN      inet.ASN
	Deployed bool
	Exposed  bool
	// Score is the AS's measured RoVista score that round.
	Score    float64
	Quadrant Quadrant
}

// Report is a campaign's full result.
type Report struct {
	Schedule []Scheduled
	// SkippedLaunches indexes scheduled attacks whose launch would have
	// collided with an existing origination or leak and was skipped to keep
	// restoration exact.
	SkippedLaunches []int
	Timeline        *core.Timeline
	Observations    []Observation
	// Quadrants counts observations per Quadrant value.
	Quadrants [4]int
	// Confusion compares measured protection (score >= threshold) against
	// the data-plane oracle per (AS, round); F1 and Accuracy are derived.
	Confusion faults.Confusion
	F1        float64
	Accuracy  float64
}

// Campaign binds a schedule to a world and runner.
type Campaign struct {
	W   *core.World
	R   *core.Runner
	Cfg Config

	sink    *stream.LiveSink
	sched   []Scheduled
	active  []bool
	skipped []bool
}

// New schedules a campaign over the world. The schedule is derived from
// Cfg.Seed alone (given the world), so it is reproducible.
func New(w *core.World, r *core.Runner, cfg Config) *Campaign {
	cfg.defaults()
	return NewWithSchedule(w, r, cfg, schedule(w, cfg))
}

// NewWithSchedule binds an explicit schedule (fuzzing and table tests).
func NewWithSchedule(w *core.World, r *core.Runner, cfg Config, sched []Scheduled) *Campaign {
	cfg.defaults()
	return &Campaign{
		W: w, R: r, Cfg: cfg,
		sink:    &stream.LiveSink{W: w, Runner: r},
		sched:   sched,
		active:  make([]bool, len(sched)),
		skipped: make([]bool, len(sched)),
	}
}

// Schedule returns the campaign's attack schedule.
func (c *Campaign) Schedule() []Scheduled { return c.sched }

// schedule draws the attack set deterministically from the config seed.
func schedule(w *core.World, cfg Config) []Scheduled {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var origins []inet.ASN
	for _, asn := range w.Topo.ASNs {
		if len(w.Topo.Info[asn].Prefixes) > 0 {
			origins = append(origins, asn)
		}
	}
	if len(origins) == 0 || cfg.Rounds <= 0 {
		return nil
	}
	asns := w.Topo.ASNs
	out := make([]Scheduled, 0, cfg.Attacks)
	for i := 0; i < cfg.Attacks; i++ {
		victim := origins[rng.Intn(len(origins))]
		attacker := asns[rng.Intn(len(asns))]
		roll := rng.Float64()
		sub := rng.Uint32()
		start := rng.Intn(cfg.Rounds)
		dur := 1 + rng.Intn(cfg.MaxDuration)
		if attacker == victim {
			continue // discard the draw, keep the stream position
		}
		kind := hijack.OriginHijack
		switch {
		case roll < cfg.SubprefixFrac:
			kind = hijack.SubprefixHijack
		case roll < cfg.SubprefixFrac+cfg.LeakFrac:
			kind = hijack.RouteLeak
		case roll < cfg.SubprefixFrac+cfg.LeakFrac+cfg.ForgedFrac:
			kind = hijack.ForgedOriginHijack
		}
		vp := w.Topo.Info[victim].Prefixes[0]
		end := start + dur
		if end > cfg.Rounds {
			end = cfg.Rounds
		}
		out = append(out, Scheduled{
			Attack: hijack.NewAttack(kind, attacker, victim, vp, sub),
			Start:  start,
			End:    end,
		})
	}
	return out
}

// launchCollides reports whether launching s now would overlap state some
// other origination (an earlier attack, or the world's own schedule) already
// holds — in which case restoring s would tear down state it did not create.
// Skipping colliding launches is what makes restoration exact by
// construction under arbitrary overlapping windows (the fuzzer leans on it).
func (c *Campaign) launchCollides(s Scheduled) bool {
	a := c.W.Graph.AS(s.Attacker)
	if a == nil {
		return true
	}
	if s.Kind == hijack.RouteLeak {
		return a.Leaking
	}
	target := s.Prefix.Masked()
	for _, p := range a.Originated {
		if p == target {
			return true
		}
	}
	return false
}

// step applies round i through the sink: one message moves the world to day
// and restores, as one coalesced batch, the attacks whose window ended; then
// each attack whose window starts launches in a message of its own, because
// launchCollides reads the world between launches.
func (c *Campaign) step(i, day int) error {
	if err := c.sink.Apply(core.Msg{Advance: true, Day: day, Events: c.ending(i)}); err != nil {
		return fmt.Errorf("campaign: round %d: %w", i, err)
	}
	for j := range c.sched {
		if c.sched[j].Start != i || c.active[j] || c.skipped[j] {
			continue
		}
		if c.launchCollides(c.sched[j]) {
			c.skipped[j] = true
			continue
		}
		if err := c.sink.Apply(core.Msg{Events: c.sched[j].LaunchEvents()}); err != nil {
			return fmt.Errorf("campaign: launch %v: %w", c.sched[j].Attack, err)
		}
		c.active[j] = true
	}
	return nil
}

// finish restores every still-active attack (announce-without-withdraw
// schedules included), returning the world to its pre-campaign state.
func (c *Campaign) finish() error {
	if err := c.sink.Apply(core.Msg{Events: c.ending(-1)}); err != nil {
		return fmt.Errorf("campaign: restore batch: %w", err)
	}
	return nil
}

// ending deactivates the attacks whose window ends at round i (every active
// one when i is -1) and returns their restore events in schedule order.
func (c *Campaign) ending(i int) []bgp.RouteEvent {
	var batch []bgp.RouteEvent
	for j := range c.sched {
		if c.active[j] && (i < 0 || c.sched[j].End == i) {
			batch = append(batch, c.sched[j].RestoreEvents()...)
			c.active[j] = false
		}
	}
	return batch
}

// Run executes the campaign: per round it advances the world, applies the
// round's restore and launch batches, runs the sink's round, and classifies
// each scored AS against every active attack. After the last round every
// remaining attack is restored. Cancellation between rounds returns the
// partial report with a nil error, as RunDays does; a round that failed the
// round monitor fails the run.
func (c *Campaign) Run(ctx context.Context) (*Report, error) {
	if c.Cfg.Interval <= 0 {
		return nil, fmt.Errorf("campaign: non-positive interval %d", c.Cfg.Interval)
	}
	rep := &Report{Schedule: c.sched, Timeline: &core.Timeline{}}
	for i := 0; i < c.Cfg.Rounds && ctx.Err() == nil; i++ {
		day := min(c.Cfg.StartDay+i*c.Cfg.Interval, c.W.Cfg.Days)
		if err := c.step(i, day); err != nil {
			return nil, err
		}
		snap, err := c.sink.Round()
		if err != nil {
			return nil, err
		}
		rep.Timeline.Days = append(rep.Timeline.Days, day)
		rep.Timeline.Snapshots = append(rep.Timeline.Snapshots, snap)
		c.observe(rep, i, day, snap)
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	if err := c.sink.Healthy(); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	for j := range c.skipped {
		if c.skipped[j] {
			rep.SkippedLaunches = append(rep.SkippedLaunches, j)
		}
	}
	rep.F1 = rep.Confusion.F1()
	rep.Accuracy = rep.Confusion.Accuracy()
	return rep, nil
}

// observe classifies every scored AS against every active attack and folds
// the measured-vs-oracle protection agreement into the confusion matrix.
// Iteration orders are fixed (schedule order, ascending ASN), so reports are
// bit-identical across worker counts.
func (c *Campaign) observe(rep *Report, round, day int, snap *core.Snapshot) {
	asns := make([]inet.ASN, 0, len(snap.Reports))
	for asn := range snap.Reports {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })

	thr := c.Cfg.ScoreThreshold
	for _, asn := range asns {
		r := snap.Reports[asn]
		pred := r.Score >= thr
		oracle := c.R.OracleScore(asn, snap.TNodes) >= thr
		rep.Confusion.Add(oracle, pred)
	}

	for j := range c.sched {
		if !c.active[j] {
			continue
		}
		att := c.sched[j].Attack
		for _, asn := range asns {
			deployed := false
			if tr := c.W.Truth[asn]; tr != nil {
				deployed = tr.DeployedAt(day)
			}
			exposed := c.exposedTo(att, asn)
			q := Classify(deployed, exposed)
			rep.Observations = append(rep.Observations, Observation{
				Round:    round,
				Day:      day,
				Attack:   j,
				ASN:      asn,
				Deployed: deployed,
				Exposed:  exposed,
				Score:    snap.Reports[asn].Score,
				Quadrant: q,
			})
			rep.Quadrants[q]++
		}
	}
}

// exposedTo decides per-AS exposure on the data plane: for hijack kinds,
// traffic toward the attacked space terminates at the attacker; for route
// leaks, the AS's traffic toward the victim transits the attacker over a
// Gao-Rexford-violating segment (provider/peer in, provider/peer out).
func (c *Campaign) exposedTo(att hijack.Attack, asn inet.ASN) bool {
	if asn == att.Attacker {
		return false
	}
	g := c.W.Graph
	if att.Kind == hijack.RouteLeak {
		path, ok := g.DataPath(asn, att.ProbeAddr())
		if !ok {
			return false
		}
		aas := g.AS(att.Attacker)
		for k := 1; k+1 < len(path); k++ {
			if path[k] != att.Attacker {
				continue
			}
			onward, ok := aas.Lookup(att.ProbeAddr())
			if !ok || onward.SelfOriginated() || onward.Rel == bgp.Customer {
				continue
			}
			if rel, known := aas.Neighbors[path[k-1]]; known && rel != bgp.Customer {
				// Neither endpoint is a customer: the attacker is gluing two
				// provider/peer edges together, which only a leak exports.
				return true
			}
		}
		return false
	}
	origin, ok := g.OriginOf(asn, att.ProbeAddr())
	return ok && origin == att.Attacker
}
