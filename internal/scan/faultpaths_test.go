package scan

import (
	"net/netip"
	"testing"
)

// Degraded-round inputs: a faulty epoch can leave discovery with nothing to
// scan. Every front-end must return an empty (never nil-panicking, never
// fabricated) result so the pipeline's typed insufficient-data verdict — not
// a crash or a phantom measurement — is what the caller sees.

func TestDiscoverVVPsNoCandidates(t *testing.T) {
	f := newFixture(t)
	if got := f.sc.DiscoverVVPs(nil); len(got) != 0 {
		t.Fatalf("DiscoverVVPs(nil) = %d vVPs, want none", len(got))
	}
	if got := f.sc.DiscoverVVPs([]netip.Addr{}); len(got) != 0 {
		t.Fatalf("DiscoverVVPs(empty) = %d vVPs, want none", len(got))
	}
}

func TestDiscoverVVPsAllUnreachable(t *testing.T) {
	f := newFixture(t)
	// Addresses under a prefix no AS originates: routed nowhere.
	cands := []netip.Addr{ip("172.16.0.1"), ip("172.16.0.2")}
	if got := f.sc.DiscoverVVPs(cands); len(got) != 0 {
		t.Fatalf("unreachable candidates qualified as vVPs: %v", got)
	}
}

func TestFindListenersNoPrefixes(t *testing.T) {
	f := newFixture(t)
	if got := findListeners(f.sc, nil); len(got) != 0 {
		t.Fatalf("FindListeners(nil) = %v, want none", got)
	}
}

func TestFindListenersEmptyPrefix(t *testing.T) {
	f := newFixture(t)
	// A valid prefix with no hosts attached under it.
	if got := findListeners(f.sc, []netip.Prefix{pfx("10.9.0.0/16")}); len(got) != 0 {
		t.Fatalf("FindListeners over hostless prefix = %v, want none", got)
	}
}

func TestDiscoverTNodesNoPrefixes(t *testing.T) {
	f := newFixture(t)
	if got := discoverTNodes(f.sc, nil); len(got) != 0 {
		t.Fatalf("DiscoverTNodes(nil) = %v, want none", got)
	}
}

func TestPermutationSizeZero(t *testing.T) {
	p := NewPermutation(0, 7)
	if p.N() == 0 {
		t.Fatal("zero-size permutation must clamp to a non-empty domain")
	}
	if got := p.Index(0); got >= p.N() {
		t.Fatalf("Index(0) = %d outside domain %d", got, p.N())
	}
}
