// Package ipid models how operating systems assign the 16-bit IPv4
// Identification field. RoVista's side channel depends on hosts that use a
// single *global* counter incremented once per transmitted packet (early
// Windows, FreeBSD); this package also models the per-destination ("local"),
// random and constant assignment policies so the vVP qualification scan has
// realistic negatives to reject.
package ipid

import (
	"fmt"
	"net/netip"
	"slices"

	"github.com/netsec-lab/rovista/internal/seedmix"
)

// Policy enumerates IP-ID assignment behaviours.
type Policy uint8

const (
	// Global increments one shared counter for every packet sent,
	// regardless of destination — the side channel RoVista exploits.
	Global Policy = iota
	// PerDestination keeps an independent counter per destination address
	// ("local" counter); indistinguishable from Global when probed from a
	// single source, which is why the qualification scan uses spoofing.
	PerDestination
	// Random draws each IP-ID uniformly at random.
	Random
	// Constant always emits zero (common for DF-bit senders).
	Constant
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Global:
		return "global"
	case PerDestination:
		return "per-destination"
	case Random:
		return "random"
	case Constant:
		return "constant"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Counter assigns IP-ID values under a given policy. Counters are not safe
// for concurrent use; the simulator serializes packet emission per host.
type Counter struct {
	policy  Policy
	global  uint16
	perDest map[netip.Addr]uint16
	src     seedmix.Source

	// lanes, when non-empty, splits a Global counter into per-CPU counters:
	// each transmission lands on a pseudo-randomly chosen lane (as Linux
	// per-CPU IP-ID generations do under multi-queue NICs). The observed
	// sequence is then non-monotonic, which is exactly the unstable-counter
	// population the §4.2 vVP qualification must reject.
	lanes []uint16
	// resetIn, when positive, counts transmissions until the counter
	// re-randomizes (a reboot or counter re-key mid-round).
	resetIn int
}

// NewCounter creates a Counter with the given policy. The seed feeds both
// the initial counter offset and the Random policy's generator so whole
// simulations stay reproducible. Seeding is O(1): counters are constructed
// per cloned host on the pair-measurement hot path, where math/rand's
// 607-word lag-table seeding once dominated round CPU.
func NewCounter(policy Policy, seed int64) *Counter {
	c := new(Counter)
	c.init(policy, seed)
	return c
}

// init (re-)initialises c in place as NewCounter(policy, seed) builds it:
// the same draws from the same source, no lanes, no pending reset. Storage c
// already owns (the per-destination map, the lane array) is kept for reuse.
func (c *Counter) init(policy Policy, seed int64) {
	c.policy = policy
	c.src.Seed(seed)
	c.global = c.rand16()
	if policy != PerDestination {
		c.perDest = nil
	} else if c.perDest == nil {
		c.perDest = make(map[netip.Addr]uint16)
	} else {
		clear(c.perDest)
	}
	c.lanes = c.lanes[:0]
	c.resetIn = 0
}

// rand16 draws a uniform 16-bit value from the counter's source.
func (c *Counter) rand16() uint16 { return uint16(c.src.Uint64() >> 48) }

// Policy returns the counter's assignment policy.
func (c *Counter) Policy() Policy { return c.policy }

// SetSplit makes a Global counter keep exactly ways per-CPU lanes, each
// starting at an independent random offset; ways < 2 leaves it unsplit.
// Calling it again with the same width is a no-op; other policies ignore it.
// Split assignment is a stable property of a host (set when faults are
// armed), so it survives Fork.
func (c *Counter) SetSplit(ways int) {
	if ways < 2 {
		ways = 0
	}
	if c.policy != Global || len(c.lanes) == ways {
		return
	}
	c.lanes = slices.Grow(c.lanes[:0], ways)[:ways]
	for i := range c.lanes {
		c.lanes[i] = c.rand16()
	}
}

// SplitWays returns the number of per-CPU lanes (0 when not split).
func (c *Counter) SplitWays() int { return len(c.lanes) }

// ResetAfter schedules a one-shot counter re-randomization after n more
// transmissions — the mid-round reboot/re-key perturbation. Non-positive n
// cancels a pending reset.
func (c *Counter) ResetAfter(n int) { c.resetIn = n }

// spend charges n transmissions against a pending reset and re-randomizes
// the counter state when the deadline passes.
func (c *Counter) spend(n int) {
	if c.resetIn <= 0 {
		return
	}
	c.resetIn -= n
	if c.resetIn > 0 {
		return
	}
	c.resetIn = 0
	c.global = c.rand16()
	for i := range c.lanes {
		c.lanes[i] = c.rand16()
	}
}

// Next returns the IP-ID for the next packet sent to dst and advances the
// internal state. Wraparound is the natural uint16 overflow.
func (c *Counter) Next(dst netip.Addr) uint16 {
	switch c.policy {
	case Global:
		c.spend(1)
		if len(c.lanes) > 0 {
			lane := int(c.src.Uint64() % uint64(len(c.lanes)))
			c.lanes[lane]++
			return c.lanes[lane]
		}
		c.global++
		return c.global
	case PerDestination:
		v := c.perDest[dst] + 1
		if _, ok := c.perDest[dst]; !ok {
			v = c.rand16()
		}
		c.perDest[dst] = v
		return v
	case Random:
		return c.rand16()
	default: // Constant
		return 0
	}
}

// Peek returns the value the global counter currently holds without
// advancing it. Only meaningful for the Global policy; other policies
// return zero.
func (c *Counter) Peek() uint16 {
	if c.policy == Global {
		return c.global
	}
	return 0
}

// ForkInto makes dst a fresh counter with c's assignment policy (including
// a per-CPU split, which is a host property) but independent state seeded by
// seed, reusing dst's storage: the measurement arena forks the same three
// counters for every pair. A forked counter starts at a new random offset,
// which the side channel tolerates by construction (the detector reads
// counter *growth*, never absolute values). Pending resets are
// per-measurement state and do not survive the fork.
func (c *Counter) ForkInto(dst *Counter, seed int64) {
	dst.init(c.policy, seed)
	dst.SetSplit(len(c.lanes))
}

// Advance bumps the global counter by n packets' worth of background
// traffic in one step (used by the simulator to account for traffic to
// destinations outside the measurement). Split counters spread the batch
// across lanes round-robin — background flows hash across CPUs too.
func (c *Counter) Advance(n int) {
	if c.policy != Global || n <= 0 {
		return
	}
	c.spend(n)
	if w := len(c.lanes); w > 0 {
		each := n / w
		for i := range c.lanes {
			add := each
			if i < n%w {
				add++
			}
			c.lanes[i] += uint16(add)
		}
		return
	}
	c.global += uint16(n)
}
