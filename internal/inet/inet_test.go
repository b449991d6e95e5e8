package inet

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestASNString(t *testing.T) {
	if got := ASN(64500).String(); got != "AS64500" {
		t.Fatalf("got %q", got)
	}
}

func TestV4RoundTrip(t *testing.T) {
	f := func(v uint32) bool { return V4Int(V4(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestV4IntPanicsOnIPv6(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	V4Int(netip.MustParseAddr("::1"))
}

func TestNthAddr(t *testing.T) {
	p := netip.MustParsePrefix("10.1.0.0/16")
	if a := NthAddr(p, 0); a != netip.MustParseAddr("10.1.0.0") {
		t.Fatalf("NthAddr(0) = %v", a)
	}
	if a := NthAddr(p, 257); a != netip.MustParseAddr("10.1.1.1") {
		t.Fatalf("NthAddr(257) = %v", a)
	}
}

func TestNthAddrOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NthAddr(netip.MustParsePrefix("10.0.0.0/30"), 4)
}

func TestPrefixSize(t *testing.T) {
	cases := map[string]uint64{
		"10.0.0.0/8": 1 << 24, "192.0.2.0/24": 256, "1.2.3.4/32": 1, "0.0.0.0/0": 1 << 32,
	}
	for s, want := range cases {
		if got := PrefixSize(netip.MustParsePrefix(s)); got != want {
			t.Errorf("PrefixSize(%s) = %d, want %d", s, got, want)
		}
	}
}

func TestSubnetAt(t *testing.T) {
	p := netip.MustParsePrefix("10.0.0.0/8")
	if got := SubnetAt(p, 16, 3); got != netip.MustParsePrefix("10.3.0.0/16") {
		t.Fatalf("SubnetAt = %v", got)
	}
	if got := SubnetAt(p, 8, 0); got != p {
		t.Fatalf("identity SubnetAt = %v", got)
	}
}

func TestSubnetAtOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SubnetAt(netip.MustParsePrefix("10.0.0.0/8"), 9, 2)
}

// Property: the i-th /b subnet of p contains exactly its own NthAddr range
// and subnets at equal index are disjoint from index+1.
func TestSubnetAtDisjointProperty(t *testing.T) {
	p := netip.MustParsePrefix("172.16.0.0/12")
	f := func(iRaw uint8) bool {
		i := uint32(iRaw % 15)
		s1 := SubnetAt(p, 16, i)
		s2 := SubnetAt(p, 16, i+1)
		return !s1.Overlaps(s2) && p.Contains(s1.Addr()) && p.Contains(s2.Addr())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
