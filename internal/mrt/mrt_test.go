package mrt

import (
	"bytes"
	"io"
	"net/netip"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/collectors"
	"github.com/netsec-lab/rovista/internal/inet"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func buildView(t testing.TB) (*collectors.View, []inet.ASN) {
	t.Helper()
	g := bgp.NewGraph()
	g.Link(1, 2, bgp.Peer)
	g.Link(1, 3, bgp.Customer)
	g.Link(2, 3, bgp.Customer)
	g.Link(1, 4, bgp.Customer)
	g.AS(3).Originated = []netip.Prefix{pfx("10.3.0.0/16"), pfx("10.30.0.0/20")}
	g.AS(4).Originated = []netip.Prefix{pfx("10.4.0.0/16")}
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	feeders := []inet.ASN{1, 2}
	coll := &collectors.Collector{Name: "rv-test", Feeders: feeders}
	return coll.Snapshot(g), feeders
}

func TestRoundTrip(t *testing.T) {
	view, feeders := buildView(t)
	var buf bytes.Buffer
	if err := WriteView(&buf, "rv-test", view, feeders, 1700000000); err != nil {
		t.Fatal(err)
	}
	dump, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dump.CollectorName != "rv-test" {
		t.Fatalf("name = %q", dump.CollectorName)
	}
	if len(dump.Peers) != 2 {
		t.Fatalf("peers = %d", len(dump.Peers))
	}

	// Every original observation must survive the round trip.
	want := map[string]bool{}
	for _, p := range view.Prefixes() {
		for _, o := range view.Routes(p) {
			want[obsKey(o)] = true
		}
	}
	got := dump.Observations()
	if len(got) != len(want) {
		t.Fatalf("observations = %d, want %d", len(got), len(want))
	}
	for _, o := range got {
		if !want[obsKey(o)] {
			t.Fatalf("unexpected observation %+v", o)
		}
	}
}

func obsKey(o collectors.RouteObs) string {
	s := o.Prefix.String() + "|" + o.Feeder.String()
	for _, h := range o.Path {
		s += "," + h.String()
	}
	return s
}

func TestOriginsPreserved(t *testing.T) {
	view, feeders := buildView(t)
	var buf bytes.Buffer
	WriteView(&buf, "x", view, feeders, 1)
	dump, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range dump.Observations() {
		if len(o.Path) == 0 {
			t.Fatalf("empty path for %v", o.Prefix)
		}
		if o.Path[0] != o.Feeder {
			t.Fatalf("path %v does not start at feeder %v", o.Path, o.Feeder)
		}
	}
}

func TestEmptyView(t *testing.T) {
	g := bgp.NewGraph()
	g.AddAS(1)
	coll := &collectors.Collector{Feeders: []inet.ASN{1}}
	var buf bytes.Buffer
	if err := WriteView(&buf, "empty", coll.Snapshot(g), []inet.ASN{1}, 0); err != nil {
		t.Fatal(err)
	}
	dump, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Entries) != 0 || len(dump.Peers) != 1 {
		t.Fatalf("dump = %+v", dump)
	}
}

func TestReadDumpMissingIndex(t *testing.T) {
	// A RIB record with no preceding peer index must be rejected.
	var buf bytes.Buffer
	writeRecord(&buf, 0, TypeTableDumpV2, SubtypeRIBIPv4Unicast, make([]byte, 7))
	if _, err := ReadDump(&buf); err == nil {
		t.Fatal("missing peer index accepted")
	}
}

func TestReadDumpEmptyInput(t *testing.T) {
	if _, err := ReadDump(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty archive accepted")
	}
}

func TestReadRecordTruncation(t *testing.T) {
	view, feeders := buildView(t)
	var buf bytes.Buffer
	WriteView(&buf, "x", view, feeders, 1)
	full := buf.Bytes()
	// Any strict prefix that ends mid-record must error (not EOF-clean),
	// except cuts at record boundaries.
	boundaries := map[int]bool{0: true}
	r := bytes.NewReader(full)
	off := 0
	for {
		rec, err := ReadRecord(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		off += 12 + len(rec.Body)
		boundaries[off] = true
	}
	for cut := 1; cut < len(full); cut++ {
		if boundaries[cut] {
			continue
		}
		if _, err := ReadDump(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestForeignRecordTypesTolerated(t *testing.T) {
	view, feeders := buildView(t)
	var buf bytes.Buffer
	// Interleave a foreign record (e.g. BGP4MP type 16) before the dump.
	writeRecord(&buf, 0, 16, 4, []byte{1, 2, 3})
	WriteView(&buf, "x", view, feeders, 1)
	dump, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Entries) == 0 {
		t.Fatal("entries lost when skipping foreign records")
	}
}

func TestParseASPathExtendedLength(t *testing.T) {
	// Build an AS_PATH attribute with the extended-length flag set.
	path := []inet.ASN{65001, 65002, 65003}
	var seg bytes.Buffer
	seg.WriteByte(asPathSequence)
	seg.WriteByte(3)
	for _, a := range path {
		var w [4]byte
		w[0] = byte(uint32(a) >> 24)
		w[1] = byte(uint32(a) >> 16)
		w[2] = byte(uint32(a) >> 8)
		w[3] = byte(uint32(a))
		seg.Write(w[:])
	}
	var attr bytes.Buffer
	attr.Write([]byte{0x50, attrASPath, 0, byte(seg.Len())}) // 0x50: transitive+extlen
	attr.Write(seg.Bytes())
	got, err := parseASPath(attr.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 65001 || got[2] != 65003 {
		t.Fatalf("path = %v", got)
	}
}

func TestParseASPathIgnoresASSets(t *testing.T) {
	// An AS_SET segment (type 1) contributes no ordered hops.
	var seg bytes.Buffer
	seg.WriteByte(1) // AS_SET
	seg.WriteByte(2)
	seg.Write([]byte{0, 0, 0, 1, 0, 0, 0, 2})
	var attr bytes.Buffer
	attr.Write([]byte{0x40, attrASPath, byte(seg.Len())})
	attr.Write(seg.Bytes())
	got, err := parseASPath(attr.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("AS_SET members leaked into path: %v", got)
	}
}
