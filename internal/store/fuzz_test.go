package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/pipeline"
)

// fuzzSegment renders a valid three-record segment starting at round base and
// returns it with the offset at which each record ends.
func fuzzSegment(base uint32) (data []byte, ends []int) {
	data = encodeSegmentHeader(base)
	for i := uint32(0); i < 3; i++ {
		rec := &RoundRecord{
			Round: base + i, Day: int(50 * i), Status: pipeline.RoundStatus(i % 2),
			TestPrefixes: 14, TNodes: 40, AllVVPs: 200 + int(i), ConsistencyCenti: 9876,
			Evidence: Evidence{PairsMeasured: 8000, PairsUsable: 7900, PairsDiscarded: 100, Profile: "paper", PairRetries: int(i)},
		}
		for asn := inet.ASN(1001); asn < 1001+inet.ASN(4+i); asn++ {
			rec.Entries = append(rec.Entries, Entry{ASN: asn, Centi: uint16(asn%100) * 100, VVPs: 3, TNodesMeasured: 12, TNodesFiltered: int(asn % 12), Unanimous: asn%2 == 0})
		}
		data = append(data, frameRecord(encodeRecord(rec))...)
		ends = append(ends, len(data))
	}
	return data, ends
}

// FuzzLoadSegment feeds loadSegment arbitrary file contents. The seeds are a
// valid segment and the damage an append-only file meets in practice: cut at
// and around every record boundary, one bit flipped in a record's length, CRC
// or payload, an oversized length, a duplicated record. Whatever the bytes,
// loading must not panic, and what it returns must be a prefix of the file:
// records numbered contiguously from the expected round, each re-encoding to
// exactly the bytes it was read from, validEnd at the end of the last of
// them — so nothing past the first bad record is ever returned. (A payload
// that decodes but is not what encodeRecord writes would fail the re-encode
// check; it needs a matching CRC, which mutation does not produce.)
func FuzzLoadSegment(f *testing.F) {
	const base = 5
	valid, ends := fuzzSegment(base)
	f.Add(valid, uint32(base))
	f.Add(valid, uint32(base+1))
	starts := append([]int{segHeaderSize}, ends[:len(ends)-1]...)
	for i, end := range ends {
		for _, cut := range []int{end - 1, end, end + 1} {
			if cut <= len(valid) {
				f.Add(valid[:cut:cut], uint32(base))
			}
		}
		for _, at := range []int{starts[i] + 1, starts[i] + 5, starts[i] + frameSize + 3} { // length, CRC, payload
			flipped := bytes.Clone(valid)
			flipped[at] ^= 0x10
			f.Add(flipped, uint32(base))
		}
		oversized := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(oversized[starts[i]:], maxPayload+1)
		f.Add(oversized, uint32(base))
		dup := append(bytes.Clone(valid[:end]), valid[starts[i]:]...)
		f.Add(dup, uint32(base))
	}
	f.Add(valid[:segHeaderSize-1], uint32(base))

	path := filepath.Join(f.TempDir(), "seg")
	f.Fuzz(func(t *testing.T, data []byte, expect uint32) {
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		recs, validEnd, err := loadSegment(path, expect)
		if err != nil {
			t.Fatalf("loadSegment on a readable file: %v", err)
		}
		if validEnd < 0 || validEnd > int64(len(data)) {
			t.Fatalf("validEnd %d outside the %d-byte file", validEnd, len(data))
		}
		if validEnd < segHeaderSize {
			if validEnd != 0 || len(recs) != 0 {
				t.Fatalf("validEnd %d inside the header with %d records", validEnd, len(recs))
			}
			return
		}
		off := segHeaderSize
		for i, rec := range recs {
			if rec.Round != expect+uint32(i) {
				t.Fatalf("record %d carries round %d, want %d", i, rec.Round, expect+uint32(i))
			}
			frame := frameRecord(encodeRecord(rec))
			if off+len(frame) > len(data) || !bytes.Equal(frame, data[off:off+len(frame)]) {
				t.Fatalf("record %d does not re-encode to the %d bytes at offset %d", i, len(frame), off)
			}
			off += len(frame)
		}
		if int64(off) != validEnd {
			t.Fatalf("validEnd %d, the %d returned records end at %d", validEnd, len(recs), off)
		}
	})
}
