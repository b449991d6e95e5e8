// Package rov implements the Route Origin Validation policies an AS can
// apply at BGP import time. It covers the policy spectrum the paper
// observes in the wild (§7.6): full filtering, exempting customer routes
// (AT&T/Cogent-style), depreferencing instead of dropping ("prefer valid"),
// and no validation at all.
package rov

import (
	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
)

// Mode is what an AS does with an RPKI-invalid announcement.
type Mode uint8

// Policy modes.
const (
	// ModeAccept performs no origin validation (or ignores the result).
	ModeAccept Mode = iota
	// ModeDrop rejects invalid announcements at import.
	ModeDrop
	// ModePreferValid accepts invalid announcements but depreferences them
	// below any valid or not-found alternative.
	ModePreferValid
)

// preferValidPenalty pushes invalid routes below every relationship tier.
const preferValidPenalty = -1000

// Policy is a composable ROV import policy: a default mode with optional
// per-relationship and per-neighbor overrides (most specific wins).
type Policy struct {
	Default Mode
	ByRel   map[bgp.Relationship]Mode
	ByASN   map[inet.ASN]Mode
}

var _ bgp.ImportPolicy = (*Policy)(nil)

// Evaluate implements bgp.ImportPolicy.
func (p *Policy) Evaluate(local, neighbor inet.ASN, rel bgp.Relationship, ann bgp.Announcement, validity rpki.Validity) bgp.ImportDecision {
	mode := p.Default
	if m, ok := p.ByRel[rel]; ok {
		mode = m
	}
	if m, ok := p.ByASN[neighbor]; ok {
		mode = m
	}
	if validity != rpki.Invalid {
		return bgp.ImportDecision{Accept: true}
	}
	switch mode {
	case ModeDrop:
		return bgp.ImportDecision{Accept: false}
	case ModePreferValid:
		return bgp.ImportDecision{Accept: true, LocalPrefDelta: preferValidPenalty}
	default:
		return bgp.ImportDecision{Accept: true}
	}
}

// Full returns the drop-invalid-everywhere policy.
func Full() *Policy { return &Policy{Default: ModeDrop} }

// CustomerExempt returns a policy that drops invalid routes from peers and
// providers but accepts them from customers — the profit-protecting
// exemption the paper confirms at AT&T, Cogent, ARNES and Forthnet.
func CustomerExempt() *Policy {
	return &Policy{
		Default: ModeDrop,
		ByRel:   map[bgp.Relationship]Mode{bgp.Customer: ModeAccept},
	}
}

// PreferValid returns the depreference-only policy.
func PreferValid() *Policy { return &Policy{Default: ModePreferValid} }
