// Package bgp implements the inter-domain routing substrate: AS-level BGP
// announcements, Gao-Rexford import/export policy, deterministic route
// selection, convergence to a stable routing state, and data-plane path
// computation via per-AS longest-prefix-match forwarding.
//
// Route Origin Validation plugs in through the ImportPolicy interface; the
// concrete ROV policies live in internal/rov so the routing engine stays
// agnostic of RPKI details beyond the validation outcome.
package bgp

import (
	"fmt"
	"net/netip"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
)

// Relationship describes a neighbor from the local AS's point of view.
type Relationship int8

// Gao-Rexford relationship types.
const (
	// Customer: the neighbor pays us for transit.
	Customer Relationship = iota
	// Peer: settlement-free peering.
	Peer
	// Provider: we pay the neighbor for transit.
	Provider
)

// String implements fmt.Stringer.
func (r Relationship) String() string {
	switch r {
	case Customer:
		return "customer"
	case Peer:
		return "peer"
	case Provider:
		return "provider"
	default:
		return fmt.Sprintf("Relationship(%d)", int8(r))
	}
}

// localPref maps the relationship a route was learned over to the standard
// Gao-Rexford preference tiers.
func (r Relationship) localPref() int {
	switch r {
	case Customer:
		return 300
	case Peer:
		return 200
	default:
		return 100
	}
}

// Announcement is a BGP UPDATE as seen on the wire between two ASes.
type Announcement struct {
	Prefix netip.Prefix
	// Path is the AS path; Path[0] is the sender, Path[len-1] the origin.
	Path []inet.ASN
}

// Origin returns the originating AS of the announcement.
func (a Announcement) Origin() inet.ASN {
	if len(a.Path) == 0 {
		return 0
	}
	return a.Path[len(a.Path)-1]
}

// Route is an installed routing-table entry.
type Route struct {
	Prefix      netip.Prefix
	Path        []inet.ASN // full AS path including the origin; empty for self-originated
	LearnedFrom inet.ASN   // neighbor ASN, or the local ASN for self-originated routes
	Rel         Relationship
	Validity    rpki.Validity // RFC 6811 outcome recorded at import time
	LocalPref   int
	selfOrigin  bool
}

// SelfOriginated reports whether the route covers a locally originated prefix.
func (r Route) SelfOriginated() bool { return r.selfOrigin }

// Origin returns the route's origin AS (the local AS for self routes).
func (r Route) Origin() inet.ASN {
	if len(r.Path) == 0 {
		return r.LearnedFrom
	}
	return r.Path[len(r.Path)-1]
}

// ImportDecision is an ImportPolicy verdict.
type ImportDecision struct {
	// Accept indicates the route enters the Adj-RIB-In at all.
	Accept bool
	// LocalPrefDelta adjusts the relationship-derived LocalPref (used by
	// prefer-valid policies to depreference invalid routes).
	LocalPrefDelta int
}

// ImportPolicy decides whether an AS accepts an announcement from a
// neighbor. Implementations receive the RFC 6811 validity computed against
// the AS's own VRP view.
//
// Contract: a policy decides what happens to Invalid announcements, and
// nothing else. What it does with one may depend on the neighbor, the
// relationship and the announcement; an announcement that is Valid or
// NotFound it must accept with LocalPrefDelta 0, the two alike, exactly as
// AcceptAll does. ApplyEvents scopes a policy change by this: replacing an
// AS's policy or VRP view re-converges only prefixes some origination of
// which is Invalid under the old or the new view, and everywhere else just
// re-records Valid vs NotFound. A policy that told Valid from NotFound, or
// treated either differently from another policy, would leave stale routes
// behind that scope.
type ImportPolicy interface {
	Evaluate(local inet.ASN, neighbor inet.ASN, rel Relationship, ann Announcement, validity rpki.Validity) ImportDecision
}

// AcceptAll is the policy of an AS that performs no origin validation.
type AcceptAll struct{}

// Evaluate implements ImportPolicy.
func (AcceptAll) Evaluate(inet.ASN, inet.ASN, Relationship, Announcement, rpki.Validity) ImportDecision {
	return ImportDecision{Accept: true}
}
