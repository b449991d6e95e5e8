package rtr

import (
	"bytes"
	"net"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func sampleVRPs() *rpki.VRPSet {
	return rpki.NewVRPSet([]rpki.VRP{
		{ASN: 64500, Prefix: pfx("10.0.0.0/8"), MaxLength: 16},
		{ASN: 64501, Prefix: pfx("192.0.2.0/24"), MaxLength: 24},
		{ASN: 64502, Prefix: pfx("198.51.100.0/24"), MaxLength: 28},
	})
}

func TestPDURoundTripPrefix(t *testing.T) {
	in := PrefixPDU(rpki.VRP{ASN: 64500, Prefix: pfx("10.1.0.0/16"), MaxLength: 24}, true, 42)
	out, err := ReadPDU(bytes.NewReader(in.Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != TypeIPv4Prefix || out.Session != 42 || out.Flags != FlagAnnounce {
		t.Fatalf("out = %+v", out)
	}
	v := out.VRPOf()
	if v.ASN != 64500 || v.Prefix != pfx("10.1.0.0/16") || v.MaxLength != 24 {
		t.Fatalf("vrp = %+v", v)
	}
}

func TestPDURoundTripAll(t *testing.T) {
	pdus := []*PDU{
		{Version: Version, Type: TypeSerialNotify, Session: 7, Serial: 99},
		{Version: Version, Type: TypeSerialQuery, Session: 7, Serial: 12},
		{Version: Version, Type: TypeResetQuery},
		{Version: Version, Type: TypeCacheResponse, Session: 7},
		{Version: Version, Type: TypeEndOfData, Session: 7, Serial: 5},
		{Version: Version, Type: TypeCacheReset, Session: 7},
		{Version: Version, Type: TypeErrorReport, Session: ErrNoDataAvailable, Text: "nothing yet"},
	}
	for _, in := range pdus {
		out, err := ReadPDU(bytes.NewReader(in.Marshal()))
		if err != nil {
			t.Fatalf("%v: %v", in.Type, err)
		}
		if out.Type != in.Type || out.Session != in.Session || out.Serial != in.Serial || out.Text != in.Text {
			t.Fatalf("round trip %v: got %+v", in.Type, out)
		}
	}
}

func TestPDURoundTripProperty(t *testing.T) {
	f := func(addr [4]byte, plenRaw, mlRaw uint8, asn uint32, announce bool, session uint16) bool {
		plen := int(plenRaw % 33)
		p, _ := netip.AddrFrom4(addr).Prefix(plen)
		ml := plen + int(mlRaw)%(33-plen) // RFC 8210 §5.6: [plen, 32]
		in := PrefixPDU(rpki.VRP{ASN: inet.ASN(asn), Prefix: p, MaxLength: ml}, announce, session)
		out, err := ReadPDU(bytes.NewReader(in.Marshal()))
		if err != nil {
			return false
		}
		return out.VRPOf() == in.VRPOf() && (out.Flags == FlagAnnounce) == announce
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReadPDURejectsMaxLengthOutOfRange: RFC 8210 §5.6 bounds an IPv4
// Prefix PDU's Max Length to [Prefix Length, 32]. A shorter one would make
// the prefix's own origin Invalid; a longer one validates every
// more-specific.
func TestReadPDURejectsMaxLengthOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		prefix string
		maxLen int
		ok     bool
	}{
		{"10.1.0.0/16", 4, false},
		{"10.1.0.0/16", 15, false},
		{"10.1.0.0/16", 16, true},
		{"10.1.0.0/16", 32, true},
		{"10.1.0.0/16", 33, false},
		{"10.1.0.0/16", 200, false},
		{"0.0.0.0/0", 0, true},
		{"192.0.2.1/32", 32, true},
		{"192.0.2.1/32", 31, false},
	} {
		b := PrefixPDU(rpki.VRP{ASN: 64500, Prefix: pfx(tc.prefix)}, true, 7).Marshal()
		b[headerLen+2] = byte(tc.maxLen)
		_, err := ReadPDU(bytes.NewReader(b))
		if (err == nil) != tc.ok {
			t.Errorf("%s max length %d: err = %v, want accepted = %v", tc.prefix, tc.maxLen, err, tc.ok)
		}
	}
}

func TestReadPDUTruncated(t *testing.T) {
	full := (&PDU{Version: Version, Type: TypeSerialNotify, Serial: 1}).Marshal()
	for cut := 1; cut < len(full); cut++ {
		if _, err := ReadPDU(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestReadPDUBadLength(t *testing.T) {
	b := (&PDU{Version: Version, Type: TypeResetQuery}).Marshal()
	b[7] = 200 // claim a huge body
	if _, err := ReadPDU(bytes.NewReader(b)); err == nil {
		t.Fatal("bad length accepted")
	}
}

// runSession wires a cache and a client over a pipe and runs fn.
func runSession(t *testing.T, cache *Cache, fn func(c *Client)) {
	t.Helper()
	serverConn, clientConn := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- cache.Serve(serverConn) }()
	client := NewClient(clientConn)
	fn(client)
	clientConn.Close()
	serverConn.Close()
	<-done
}

func TestResetSync(t *testing.T) {
	cache := NewCache(9)
	cache.Update(sampleVRPs())
	runSession(t, cache, func(c *Client) {
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
		if c.Len() != 3 {
			t.Fatalf("synced %d VRPs, want 3", c.Len())
		}
		if c.Serial() != 1 {
			t.Fatalf("serial = %d", c.Serial())
		}
		set := c.VRPSet()
		if set.Validate(pfx("10.5.0.0/16"), 64500) != rpki.Valid {
			t.Fatal("synced VRPs do not validate")
		}
	})
}

func TestIncrementalSync(t *testing.T) {
	cache := NewCache(9)
	cache.Update(sampleVRPs())
	runSession(t, cache, func(c *Client) {
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
		// Publish a delta: one VRP added, one removed.
		cache.Update(rpki.NewVRPSet([]rpki.VRP{
			{ASN: 64500, Prefix: pfx("10.0.0.0/8"), MaxLength: 16},
			{ASN: 64501, Prefix: pfx("192.0.2.0/24"), MaxLength: 24},
			{ASN: 64999, Prefix: pfx("203.0.113.0/24"), MaxLength: 24},
		}))
		if err := c.Refresh(); err != nil {
			t.Fatal(err)
		}
		if c.Len() != 3 {
			t.Fatalf("after delta: %d VRPs", c.Len())
		}
		set := c.VRPSet()
		if set.Validate(pfx("203.0.113.0/24"), 64999) != rpki.Valid {
			t.Fatal("announced VRP missing")
		}
		if set.Validate(pfx("198.51.100.0/24"), 64502) != rpki.NotFound {
			t.Fatal("withdrawn VRP still present")
		}
		if c.Serial() != 2 {
			t.Fatalf("serial = %d", c.Serial())
		}
	})
}

func TestRefreshWithoutChanges(t *testing.T) {
	cache := NewCache(3)
	cache.Update(sampleVRPs())
	runSession(t, cache, func(c *Client) {
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
		before := c.Len()
		if err := c.Refresh(); err != nil {
			t.Fatal(err)
		}
		if c.Len() != before {
			t.Fatalf("no-op refresh changed VRP count %d -> %d", before, c.Len())
		}
	})
}

func TestCacheResetFallback(t *testing.T) {
	cache := NewCache(3)
	cache.retain = 2
	cache.Update(sampleVRPs())
	runSession(t, cache, func(c *Client) {
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
		// Burn through the retention window so serial 1 is trimmed.
		for i := 0; i < 5; i++ {
			cache.Update(sampleVRPs())
		}
		if err := c.Refresh(); err != nil {
			t.Fatal(err)
		}
		if c.Serial() != cache.Serial() {
			t.Fatalf("client serial %d != cache %d after fallback", c.Serial(), cache.Serial())
		}
		if c.Len() != 3 {
			t.Fatalf("VRPs = %d after fallback reset", c.Len())
		}
	})
}

func TestFirstRefreshIsReset(t *testing.T) {
	cache := NewCache(3)
	cache.Update(sampleVRPs())
	runSession(t, cache, func(c *Client) {
		if err := c.Refresh(); err != nil { // never synced: must fall back
			t.Fatal(err)
		}
		if c.Len() != 3 {
			t.Fatalf("VRPs = %d", c.Len())
		}
	})
}

// TestSerialNotify: a Serial Notify the cache pushes ahead of its Cache
// Response is skipped, and the sync completes.
func TestSerialNotify(t *testing.T) {
	serverConn, clientConn := net.Pipe()
	defer serverConn.Close()
	defer clientConn.Close()

	go func() {
		ReadPDU(serverConn)
		writePDU(serverConn, &PDU{Version: Version, Type: TypeSerialNotify, Session: 5, Serial: 4})
		writePDU(serverConn, &PDU{Version: Version, Type: TypeCacheResponse, Session: 5})
		writePDU(serverConn, PrefixPDU(rpki.VRP{ASN: 64500, Prefix: pfx("10.0.0.0/8"), MaxLength: 16}, true, 5))
		writePDU(serverConn, &PDU{Version: Version, Type: TypeEndOfData, Session: 5, Serial: 4})
	}()

	client := NewClient(clientConn)
	if err := client.Reset(); err != nil {
		t.Fatal(err)
	}
	if client.Len() != 1 || client.Serial() != 4 {
		t.Fatalf("len=%d serial=%d", client.Len(), client.Serial())
	}
}

func TestDiff(t *testing.T) {
	old := []rpki.VRP{
		{ASN: 1, Prefix: pfx("10.0.0.0/8"), MaxLength: 8},
		{ASN: 2, Prefix: pfx("20.0.0.0/8"), MaxLength: 8},
	}
	new := []rpki.VRP{
		{ASN: 2, Prefix: pfx("20.0.0.0/8"), MaxLength: 8},
		{ASN: 3, Prefix: pfx("30.0.0.0/8"), MaxLength: 8},
	}
	ann, wd := diff(old, new)
	if len(ann) != 1 || ann[0].ASN != 3 {
		t.Fatalf("announce = %+v", ann)
	}
	if len(wd) != 1 || wd[0].ASN != 1 {
		t.Fatalf("withdraw = %+v", wd)
	}
}

func TestPDUTypeString(t *testing.T) {
	if TypeSerialNotify.String() != "Serial Notify" || TypeIPv4Prefix.String() != "IPv4 Prefix" {
		t.Fatal("PDU type strings wrong")
	}
}

// End-to-end: relying-party output flows through the wire protocol into a
// router's import policy.
func TestRTRFeedsImportPolicy(t *testing.T) {
	// Build a tiny RPKI world and validate it.
	auth := rpki.NewAuthority(rpki.RIPE, 1, rpki.ResourceSet{
		Prefixes: []netip.Prefix{pfx("10.0.0.0/8")},
		ASNs:     []rpki.ASNRange{{Lo: 1, Hi: 70000}},
	}, 0, 100)
	auth.IssueCA("isp", "", rpki.ResourceSet{Prefixes: []netip.Prefix{pfx("10.1.0.0/16")}}, 0, 100)
	auth.IssueROA("isp", 64500, []rpki.ROAPrefix{{Prefix: pfx("10.1.0.0/16"), MaxLength: 20}}, 0, 100)
	rp := &rpki.RelyingParty{Day: 1}
	vrps, errs := rp.Validate([]*rpki.Repository{auth.Repo})
	if len(errs) != 0 {
		t.Fatal(errs)
	}

	cache := NewCache(77)
	cache.Update(vrps)
	runSession(t, cache, func(c *Client) {
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
		routerView := c.VRPSet()
		if routerView.Validate(pfx("10.1.0.0/18"), 64500) != rpki.Valid {
			t.Fatal("router view should validate the covered announcement")
		}
		if routerView.Validate(pfx("10.1.0.0/18"), 666) != rpki.Invalid {
			t.Fatal("router view should reject the wrong origin")
		}
	})
}

// TestAbortUnblocksPendingRead is the regression test for the read-loop
// leak: a client parked in ReadPDU (cache sent Cache Response then went
// silent) must be released by Abort rather than blocking forever.
func TestAbortUnblocksPendingRead(t *testing.T) {
	serverConn, clientConn := net.Pipe()
	defer serverConn.Close()

	// Half a response: Cache Response, then silence. The client's read
	// loop is now parked with no deadline.
	go func() {
		ReadPDU(serverConn) // consume the Reset Query
		writePDU(serverConn, &PDU{Version: Version, Type: TypeCacheResponse, Session: 5})
	}()

	client := NewClient(clientConn)
	done := make(chan error, 1)
	go func() { done <- client.Reset() }()

	// Give the reset a moment to get parked, then abort it.
	time.Sleep(10 * time.Millisecond)
	client.Abort()

	select {
	case err := <-done:
		if err != ErrAborted {
			t.Fatalf("Reset returned %v, want ErrAborted", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Reset still blocked after Abort")
	}
}

// TestSerialNotifyMidResponse: an unsolicited Serial Notify interleaved
// with an in-flight response is skipped, not treated as a protocol error.
func TestSerialNotifyMidResponse(t *testing.T) {
	serverConn, clientConn := net.Pipe()
	defer serverConn.Close()
	defer clientConn.Close()

	go func() {
		ReadPDU(serverConn)
		writePDU(serverConn, &PDU{Version: Version, Type: TypeCacheResponse, Session: 5})
		writePDU(serverConn, &PDU{Version: Version, Type: TypeSerialNotify, Session: 5, Serial: 9})
		writePDU(serverConn, PrefixPDU(rpki.VRP{ASN: 64500, Prefix: pfx("10.0.0.0/8"), MaxLength: 16}, true, 5))
		writePDU(serverConn, &PDU{Version: Version, Type: TypeEndOfData, Session: 5, Serial: 3})
	}()

	client := NewClient(clientConn)
	if err := client.Reset(); err != nil {
		t.Fatal(err)
	}
	if client.Len() != 1 || client.Serial() != 3 {
		t.Fatalf("len=%d serial=%d", client.Len(), client.Serial())
	}
}
