// Package baselines implements the alternative ROV measurement approaches
// the paper compares RoVista against (§8): the single-RPKI-invalid-prefix
// technique behind Cloudflare's isbgpsafeyet.com, its crowdsourced operator
// list, and passive control-plane inference from collector views.
package baselines

import (
	"net/netip"
	"sort"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/collectors"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
)

// Verdict is a single-prefix measurement's per-AS label.
type Verdict uint8

// Single-prefix verdicts (isbgpsafeyet.com wording).
const (
	// Unsafe: the AS fetched content from the RPKI-invalid prefix.
	Unsafe Verdict = iota
	// Safe: the AS could only fetch from the valid prefix.
	Safe
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	if v == Safe {
		return "safe"
	}
	return "unsafe"
}

// SinglePrefix classifies each candidate AS by whether it can reach one
// specific RPKI-invalid test address — the isbgpsafeyet.com methodology.
// An AS is Safe when the invalid destination is unreachable and Unsafe
// otherwise.
func SinglePrefix(g *bgp.Graph, testAddr netip.Addr, candidates []inet.ASN) map[inet.ASN]Verdict {
	out := make(map[inet.ASN]Verdict, len(candidates))
	for _, asn := range candidates {
		if g.Reachable(asn, testAddr) {
			out[asn] = Unsafe
		} else {
			out[asn] = Safe
		}
	}
	return out
}

// FPFN quantifies a single-prefix measurement against RoVista scores using
// the paper's conservative thresholds: a false negative is an AS labelled
// unsafe whose protection score exceeds 90%; a false positive is an AS
// labelled safe whose score is 0%.
type FPFN struct {
	FalsePositives int
	FalseNegatives int
	Compared       int
}

// FPRate returns false positives / compared.
func (f FPFN) FPRate() float64 {
	if f.Compared == 0 {
		return 0
	}
	return float64(f.FalsePositives) / float64(f.Compared)
}

// FNRate returns false negatives / compared.
func (f FPFN) FNRate() float64 {
	if f.Compared == 0 {
		return 0
	}
	return float64(f.FalseNegatives) / float64(f.Compared)
}

// CompareSinglePrefix evaluates single-prefix verdicts against scores.
func CompareSinglePrefix(verdicts map[inet.ASN]Verdict, scores map[inet.ASN]float64) FPFN {
	var out FPFN
	for asn, v := range verdicts {
		score, ok := scores[asn]
		if !ok {
			continue
		}
		out.Compared++
		switch {
		case v == Unsafe && score > 90:
			out.FalseNegatives++
		case v == Safe && score == 0:
			out.FalsePositives++
		}
	}
	return out
}

// PassiveInference labels an AS as filtering when it never appears on the
// propagation path of any RPKI-invalid announcement in the collector view.
// The paper (§2.3) notes this misclassifies heavily: absence from observed
// paths usually reflects limited visibility, not filtering.
func PassiveInference(view *collectors.View, vrps *rpki.VRPSet, candidates []inet.ASN) map[inet.ASN]bool {
	onInvalidPath := make(map[inet.ASN]bool)
	for _, p := range view.Prefixes() {
		for _, r := range view.Routes(p) {
			if vrps.Validate(p, r.Origin()) != rpki.Invalid {
				continue
			}
			for _, hop := range r.Path {
				onInvalidPath[hop] = true
			}
		}
	}
	out := make(map[inet.ASN]bool, len(candidates))
	for _, asn := range candidates {
		out[asn] = !onInvalidPath[asn]
	}
	return out
}

// CrowdLabel is a crowdsourced-list entry label (Cloudflare's categories).
type CrowdLabel string

// Crowdsourced labels.
const (
	LabelSafe          CrowdLabel = "safe"
	LabelPartiallySafe CrowdLabel = "partially safe"
	LabelUnsafe        CrowdLabel = "unsafe"
)

// CrowdEntry is one row of a crowdsourced operator list.
type CrowdEntry struct {
	ASN   inet.ASN
	Label CrowdLabel
}

// SortEntries orders entries by ASN for deterministic output.
func SortEntries(es []CrowdEntry) {
	sort.Slice(es, func(i, j int) bool { return es[i].ASN < es[j].ASN })
}
