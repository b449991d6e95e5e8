package mrt

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/netsec-lab/rovista/internal/collectors"
	"github.com/netsec-lab/rovista/internal/inet"
)

// canonical sorts observations by (prefix, feeder, path), the order in which
// two dumps of the same routes can be compared.
func canonical(obs []collectors.RouteObs) []collectors.RouteObs {
	return slices.SortedStableFunc(slices.Values(obs), func(a, b collectors.RouteObs) int {
		return cmp.Or(a.Prefix.Addr().Compare(b.Prefix.Addr()), cmp.Compare(a.Prefix.Bits(), b.Prefix.Bits()),
			cmp.Compare(a.Feeder, b.Feeder), slices.Compare(a.Path, b.Path))
	})
}

// FuzzReadDumps feeds ReadDumps (and through it ReadRecord) arbitrary
// archives. The seeds are WriteView's output for a small view, cut at and
// around every record boundary, plus the malformed and oversized classes of
// CURE's (2312.01872) corpus: a record length past the bytes that follow,
// peer and observation counts past what the body holds, a prefix longer
// than 32 bits, an AS path attribute longer than its record, and an AS path
// too long for one segment. Whatever the bytes: no panic; no allocation
// past a fixed multiple of the input; and an accepted archive, re-encoded
// dump by dump through WriteView, reads back as the same observations.
func FuzzReadDumps(f *testing.F) {
	view, feeders := buildView(f)
	var buf bytes.Buffer
	if err := WriteView(&buf, "rv-fuzz", view, feeders, 1700000000); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(append(bytes.Clone(valid), valid...)) // two archives back to back
	for off := 0; off+12 <= len(valid); {
		next := off + 12 + int(binary.BigEndian.Uint32(valid[off+8:]))
		for _, cut := range []int{next - 1, next, next + 1} {
			if cut <= len(valid) {
				f.Add(valid[:cut:cut])
			}
		}
		oversized := bytes.Clone(valid)
		binary.BigEndian.PutUint32(oversized[off+8:], 1<<24)
		f.Add(oversized)
		off = next
	}
	// A peer index claiming 65535 peers in a 10-byte body.
	var idx bytes.Buffer
	writeRecord(&idx, 0, TypeTableDumpV2, SubtypePeerIndexTable, []byte{0, 0, 0, 0, 0, 0, 0xff, 0xff, 2, 0})
	f.Add(idx.Bytes())
	// A RIB entry claiming 65535 observations, a /33, an AS_PATH longer
	// than its attribute block.
	head := valid[:12+int(binary.BigEndian.Uint32(valid[8:]))]
	for _, body := range [][]byte{
		{0, 0, 0, 0, 8, 10, 0xff, 0xff},
		{0, 0, 0, 0, 33, 10, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 8, 10, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7, 0x40, attrASPath, 200, 2, 1, 0, 0},
	} {
		var rec bytes.Buffer
		writeRecord(&rec, 0, TypeTableDumpV2, SubtypeRIBIPv4Unicast, body)
		f.Add(append(bytes.Clone(head), rec.Bytes()...))
	}
	long := make([]inet.ASN, 300)
	for i := range long {
		long[i] = inet.ASN(64512 + i)
	}
	var longRec bytes.Buffer
	body, err := marshalRIBEntry(0, pfx("10.9.0.0/16"), []collectors.RouteObs{{Prefix: pfx("10.9.0.0/16"), Path: long, Feeder: feeders[0]}}, map[inet.ASN]int{feeders[0]: 0}, 1)
	if err != nil {
		f.Fatal(err)
	}
	writeRecord(&longRec, 0, TypeTableDumpV2, SubtypeRIBIPv4Unicast, body)
	f.Add(append(bytes.Clone(head), longRec.Bytes()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dumps, err := ReadDumps(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<20 {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		for i, d := range dumps {
			var feeders []inet.ASN
			for _, p := range d.Peers {
				feeders = append(feeders, p.ASN)
			}
			obs := d.Observations()
			var out bytes.Buffer
			if err := WriteView(&out, d.CollectorName, collectors.NewView(obs), feeders, d.Timestamp); err != nil {
				t.Fatalf("dump %d does not re-encode: %v", i, err)
			}
			again, err := ReadDumps(&out)
			if err != nil || len(again) != 1 {
				t.Fatalf("dump %d re-encoded reads back as %d dumps, %v", i, len(again), err)
			}
			if again[0].CollectorName != d.CollectorName || again[0].Timestamp != d.Timestamp {
				t.Fatalf("dump %d re-encoded as %q@%d, was %q@%d", i, again[0].CollectorName, again[0].Timestamp, d.CollectorName, d.Timestamp)
			}
			if got, want := canonical(again[0].Observations()), canonical(obs); !reflect.DeepEqual(got, want) {
				t.Fatalf("dump %d re-encoded reads back as\n%v\nwas\n%v", i, got, want)
			}
		}
	})
}
