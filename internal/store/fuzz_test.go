package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/pipeline"
)

// fuzzSegment renders a valid three-record segment starting at round base and
// returns it with the offset at which each record ends. Its first record is
// an old-style one, with a nonzero PathCacheFlaps.
func fuzzSegment(base uint32) (data []byte, ends []int) {
	data = encodeSegmentHeader(base)
	for i := uint32(0); i < 3; i++ {
		rec := &RoundRecord{
			Round: base + i, Day: int(50 * i), Status: pipeline.RoundStatus(i % 2),
			TestPrefixes: 14, TNodes: 40, AllVVPs: 200 + int(i), ConsistencyCenti: 9876,
			Evidence: Evidence{PairsMeasured: 8000, PairsUsable: 7900, PairsDiscarded: 100, Profile: "paper", PairRetries: int(i)},
		}
		if i == 0 {
			// A record written while rounds still flapped the path cache:
			// the archived slot holds a count and must keep decoding.
			rec.Evidence.PathCacheFlaps = 4
		}
		for asn := inet.ASN(1001); asn < 1001+inet.ASN(4+i); asn++ {
			rec.Entries = append(rec.Entries, Entry{ASN: asn, Centi: uint16(asn%100) * 100, VVPs: 3, TNodesMeasured: 12, TNodesFiltered: uint32(asn % 12), Unanimous: asn%2 == 0})
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

// recordPayload renders the payload of a one-entry record the way
// encodeRecord lays it out, from raw field values, so a test can write what
// no RoundRecord holds: counts past their types, overlong varints,
// trailing bytes.
func recordPayload(consistency, vvps, measured, filtered uint64, tail ...byte) []byte {
	b := appendUvarint(nil, 3) // round
	b = appendUvarint(b, 50)   // day
	b = append(b, 0)           // status
	for _, v := range []uint64{14, 40, 200, consistency, 8000, 7900, 100} {
		b = appendUvarint(b, v)
	}
	b = appendString(b, "paper")
	for range 7 { // retries … path-cache flaps
		b = appendUvarint(b, 0)
	}
	b = appendUvarint(b, 1)    // entries
	b = appendUvarint(b, 1001) // ASN
	b = appendSvarint(b, 2500) // centi-score
	b = appendUvarint(b, vvps)
	b = appendUvarint(b, measured)
	b = appendUvarint(b, filtered)
	b = append(b, 1) // unanimous
	return append(b, tail...)
}

// TestDecodeRecordRejectsWhatEncodeCannotWrite: a CRC-valid payload is
// still damage when encodeRecord could not have written it. Each case below
// used to decode — a record with trailing zero bytes, an entry whose counts
// wrapped to negative ints (VVPs -1, TNodesMeasured -5) or filtered more
// tNodes than it measured, which a resumed daemon would have turned into a
// score — and must now be refused, while the well-formed payload they are
// cut from decodes and re-encodes to itself.
func TestDecodeRecordRejectsWhatEncodeCannotWrite(t *testing.T) {
	good := recordPayload(9876, 3, 12, 3)
	rec, err := decodeRecord(good)
	if err != nil {
		t.Fatalf("well-formed payload: %v", err)
	}
	if !bytes.Equal(encodeRecord(rec), good) {
		t.Fatal("well-formed payload does not re-encode to itself")
	}
	overlong := bytes.Clone(good)
	overlong = append(overlong[:0:0], good[0]|0x80, 0x00) // round 3 as two bytes
	overlong = append(overlong, good[1:]...)
	for name, p := range map[string][]byte{
		"trailing zero bytes":   recordPayload(9876, 3, 12, 3, 0, 0, 0),
		"negative counts":       recordPayload(9876, math.MaxUint64, math.MaxUint64-4, 9),
		"vVPs past uint16":      recordPayload(9876, math.MaxUint16+1, 12, 3),
		"tNodes past uint32":    recordPayload(9876, 3, math.MaxUint32+1, 3),
		"filtered > measured":   recordPayload(9876, 3, 12, 13),
		"consistency > 10000":   recordPayload(10001, 3, 12, 3),
		"overlong varint":       overlong,
		"unknown entry flags":   append(recordPayload(9876, 3, 12, 3)[:len(good)-1], 2),
		"truncated entry flags": good[:len(good)-1],
	} {
		if rec, err := decodeRecord(p); err == nil {
			t.Errorf("%s: decoded to %+v", name, rec.Entries)
		}
	}
}

// FuzzDecodeRecord feeds decodeRecord raw payloads, seeded with the records
// of a valid segment and the damage CRC framing cannot see: trailing bytes,
// counts past their types, overlong varints. Whatever it accepts must be
// exactly what encodeRecord writes for the record it returns.
func FuzzDecodeRecord(f *testing.F) {
	valid, ends := fuzzSegment(0)
	start := segHeaderSize
	for _, end := range ends {
		p := valid[start+frameSize : end]
		f.Add(p)
		f.Add(append(bytes.Clone(p), 0, 0, 0))
		start = end
	}
	f.Add(recordPayload(9876, 3, 12, 3))
	f.Add(recordPayload(9876, math.MaxUint64, math.MaxUint64-4, 9))
	f.Add(recordPayload(10001, 3, 12, 13))
	f.Fuzz(func(t *testing.T, p []byte) {
		rec, err := decodeRecord(p)
		if err != nil {
			return
		}
		if got := encodeRecord(rec); !bytes.Equal(got, p) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", p, got)
		}
	})
}
