package netsim

import "fmt"

// StateDigest renders everything about h a simulation can change: the IP-ID
// counter, the TCP endpoint's flows, the background clock and the position
// of the background rng, the response rate limiter, the armed wake-up and
// the packet handler. Reading the rng's position draws from it, so a host
// is digested once, when the comparison is due.
func (h *Host) StateDigest() string {
	return fmt.Sprintf("ipid=%+v tcp=%+v bg=%v rng=%d rl=%v/%v/%v tick=%v/%d/%v handler=%p",
		*h.IPID, *h.TCP, h.lastBG, h.rng.Int63(), h.rlTokens, h.rlLast, h.rlInit,
		h.tickTok != nil, h.tickGen, h.tickAt, h.Handler)
}
