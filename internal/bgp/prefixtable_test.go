package bgp

import (
	"math/rand"
	"net/netip"
	"testing"

	"github.com/netsec-lab/rovista/internal/inet"
)

// TestPackedKeyContainment holds the packed-key walks of bumpAffected and
// the ROA-change scope to netip: on random nested prefix pairs, /0 and /32
// included, in both orders, keyContains must agree with "outer is no longer
// than inner and contains its address" and keyOverlaps with
// netip.Prefix.Overlaps.
func TestPackedKeyContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(plen int) netip.Prefix {
		return netip.PrefixFrom(inet.V4(rng.Uint32()), plen).Masked()
	}
	var pairs [][2]netip.Prefix
	for i := 0; i < 20000; i++ {
		short, long := rng.Intn(33), rng.Intn(33)
		if short > long {
			short, long = long, short
		}
		switch i % 4 {
		case 0: // nested: long sits inside short
			p := random(long)
			pairs = append(pairs, [2]netip.Prefix{netip.PrefixFrom(p.Addr(), short).Masked(), p})
		case 1: // nested at the extremes
			p := random(32)
			pairs = append(pairs, [2]netip.Prefix{netip.PrefixFrom(p.Addr(), []int{0, 32}[rng.Intn(2)]).Masked(), p})
		case 2: // siblings: agree on the first short bits, differ after
			p := random(long)
			if long > short {
				flip := short + rng.Intn(long-short)
				q := netip.PrefixFrom(inet.V4(inet.V4Int(p.Addr())^1<<(31-flip)), long)
				pairs = append(pairs, [2]netip.Prefix{p, q}, [2]netip.Prefix{netip.PrefixFrom(p.Addr(), short).Masked(), q})
			}
		default: // unrelated
			pairs = append(pairs, [2]netip.Prefix{random(short), random(long)})
		}
	}
	contains, overlaps := 0, 0
	for _, pr := range pairs {
		for _, o := range [2][2]netip.Prefix{pr, {pr[1], pr[0]}} {
			outer, inner := o[0], o[1]
			ko, ki := inet.PrefixKey(outer), inet.PrefixKey(inner)
			want := outer.Bits() <= inner.Bits() && outer.Contains(inner.Addr())
			if got := keyContains(ko, ki); got != want {
				t.Fatalf("keyContains(%v, %v) = %v, netip says %v", outer, inner, got, want)
			}
			if want {
				contains++
			}
			wantOv := outer.Overlaps(inner)
			if got := keyOverlaps(ko, ki); got != wantOv {
				t.Fatalf("keyOverlaps(%v, %v) = %v, netip says %v", outer, inner, got, wantOv)
			}
			if wantOv {
				overlaps++
			}
		}
	}
	// Both answers must have been exercised many times over.
	if n := 2 * len(pairs); contains < n/10 || contains > n-n/10 || overlaps < n/10 || overlaps > n-n/10 {
		t.Fatalf("of %d ordered pairs %d contain and %d overlap: the generator is lopsided", n, contains, overlaps)
	}
}
