package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/pipeline"
)

// Segment file layout:
//
//	header (16 bytes):
//	  magic     "ROVSEG01"        8 bytes
//	  version   uint16 LE         (currently 1)
//	  flags     uint16 LE         (reserved, 0)
//	  baseRound uint32 LE         (round index of the first record)
//	record, repeated:
//	  length    uint32 LE         (payload bytes)
//	  crc32     uint32 LE         (IEEE, over the payload)
//	  payload   varint-encoded RoundRecord
//
// A record is only trusted when its frame is complete AND its CRC matches,
// so any prefix-truncation of the file (the crash shape of append-only
// writes) loses at most the partially-written tail record.

const (
	segMagic      = "ROVSEG01"
	segVersion    = 1
	segHeaderSize = 16
	frameSize     = 8
	// maxPayload bounds a single record frame; a 50k-AS round encodes in
	// well under 1 MiB, so anything near this is corruption, not data.
	maxPayload = 1 << 28
)

// encodeSegmentHeader renders the 16-byte header.
func encodeSegmentHeader(baseRound uint32) []byte {
	h := make([]byte, segHeaderSize)
	copy(h, segMagic)
	binary.LittleEndian.PutUint16(h[8:], segVersion)
	binary.LittleEndian.PutUint16(h[10:], 0)
	binary.LittleEndian.PutUint32(h[12:], baseRound)
	return h
}

// parseSegmentHeader validates the header and returns the base round.
func parseSegmentHeader(h []byte) (baseRound uint32, err error) {
	if len(h) < segHeaderSize || string(h[:8]) != segMagic {
		return 0, fmt.Errorf("store: bad segment magic")
	}
	if v := binary.LittleEndian.Uint16(h[8:]); v != segVersion {
		return 0, fmt.Errorf("store: unsupported segment version %d", v)
	}
	return binary.LittleEndian.Uint32(h[12:]), nil
}

// appendUvarint / appendSvarint are the payload primitives.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendSvarint(b []byte, v int64) []byte  { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodeRecord renders a record's payload (excluding the frame).
// Entries are delta-encoded: ASNs as ascending deltas, scores as signed
// deltas from the previous entry's centi-score — both compress the dense,
// slowly-varying per-AS tables a longitudinal archive accumulates.
func encodeRecord(rec *RoundRecord) []byte {
	b := make([]byte, 0, 64+12*len(rec.Entries))
	b = appendUvarint(b, uint64(rec.Round))
	b = appendUvarint(b, uint64(rec.Day))
	b = append(b, byte(rec.Status))
	b = appendUvarint(b, uint64(rec.TestPrefixes))
	b = appendUvarint(b, uint64(rec.TNodes))
	b = appendUvarint(b, uint64(rec.AllVVPs))
	b = appendUvarint(b, uint64(rec.ConsistencyCenti))

	ev := rec.Evidence
	b = appendUvarint(b, uint64(ev.PairsMeasured))
	b = appendUvarint(b, uint64(ev.PairsUsable))
	b = appendUvarint(b, uint64(ev.PairsDiscarded))
	b = appendString(b, ev.Profile)
	b = appendUvarint(b, uint64(ev.PairRetries))
	b = appendUvarint(b, uint64(ev.PairsRecovered))
	b = appendUvarint(b, uint64(ev.VVPsChurned))
	b = appendUvarint(b, uint64(ev.VVPsUnstable))
	b = appendUvarint(b, uint64(ev.VVPsRequalified))
	b = appendUvarint(b, uint64(ev.VVPsDropped))
	b = appendUvarint(b, uint64(ev.PathCacheFlaps))

	b = appendUvarint(b, uint64(len(rec.Entries)))
	prevASN, prevCenti := uint64(0), int64(0)
	for _, e := range rec.Entries {
		b = appendUvarint(b, uint64(e.ASN)-prevASN)
		b = appendSvarint(b, int64(e.Centi)-prevCenti)
		b = appendUvarint(b, uint64(e.VVPs))
		b = appendUvarint(b, uint64(e.TNodesMeasured))
		b = appendUvarint(b, uint64(e.TNodesFiltered))
		var flags byte
		if e.Unanimous {
			flags |= 1
		}
		b = append(b, flags)
		prevASN, prevCenti = uint64(e.ASN), int64(e.Centi)
	}
	return b
}

// cursor is a checked payload reader: the first malformed read poisons it.
type cursor struct {
	b       []byte
	off     int
	err     error
	scratch [binary.MaxVarintLen64]byte
}

func (c *cursor) fail() uint64 {
	if c.err == nil {
		c.err = fmt.Errorf("store: truncated record payload at offset %d", c.off)
	}
	return 0
}

// reject poisons the cursor with a range or canonicality error.
func (c *cursor) reject(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("store: "+format, args...)
	}
}

// uvarint reads a varint in its canonical (shortest) form: encodeRecord
// writes no other, so a longer one is damage, not data.
func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return c.fail()
	}
	if n != len(binary.AppendUvarint(c.scratch[:0], v)) {
		c.reject("overlong varint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// upTo reads a uvarint that must not exceed limit, the largest value its
// field holds.
func (c *cursor) upTo(limit uint64, field string) uint64 {
	v := c.uvarint()
	if v > limit {
		c.reject("%s %d out of range", field, v)
		return 0
	}
	return v
}

// count reads a uvarint held in an int field.
func (c *cursor) count(field string) int { return int(c.upTo(math.MaxInt, field)) }

func (c *cursor) svarint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		return int64(c.fail())
	}
	if n != len(binary.AppendVarint(c.scratch[:0], v)) {
		c.reject("overlong varint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		return byte(c.fail())
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) str() string {
	n := c.uvarint()
	if c.err != nil {
		return ""
	}
	if c.off+int(n) > len(c.b) || n > maxPayload {
		c.fail()
		return ""
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s
}

// decodeRecord parses one payload back into a record. It accepts exactly
// the payloads encodeRecord writes: every varint in its shortest form, every
// field within the range of its type (and a consistency fraction, score and
// filtered count within theirs), entries strictly ascending, nothing after
// the last entry — so encodeRecord(decodeRecord(p)) == p for every p it
// accepts, and a CRC-valid but damaged payload cannot hand a resumed daemon
// a count that wrapped.
func decodeRecord(payload []byte) (*RoundRecord, error) {
	c := &cursor{b: payload}
	rec := &RoundRecord{
		Round:        uint32(c.upTo(math.MaxUint32, "round")),
		Day:          c.count("day"),
		Status:       pipeline.RoundStatus(c.byte()),
		TestPrefixes: c.count("test prefix count"),
		TNodes:       c.count("tNode count"),
		AllVVPs:      c.count("vVP count"),
	}
	rec.ConsistencyCenti = uint16(c.upTo(10000, "consistency"))
	rec.Evidence = Evidence{
		PairsMeasured:  c.count("pairs measured"),
		PairsUsable:    c.count("pairs usable"),
		PairsDiscarded: c.count("pairs discarded"),
		Profile:        c.str(),
	}
	rec.Evidence.PairRetries = c.count("pair retries")
	rec.Evidence.PairsRecovered = c.count("pairs recovered")
	rec.Evidence.VVPsChurned = c.count("vVPs churned")
	rec.Evidence.VVPsUnstable = c.count("vVPs unstable")
	rec.Evidence.VVPsRequalified = c.count("vVPs requalified")
	rec.Evidence.VVPsDropped = c.count("vVPs dropped")
	rec.Evidence.PathCacheFlaps = c.count("path cache flaps")

	n := c.uvarint()
	if c.err != nil {
		return nil, c.err
	}
	if n > maxPayload/7 {
		return nil, fmt.Errorf("store: implausible entry count %d", n)
	}
	rec.Entries = make([]Entry, 0, n)
	prevASN, prevCenti := uint64(0), int64(0)
	for i := uint64(0); i < n; i++ {
		asn := prevASN + c.upTo(math.MaxUint32-prevASN, "ASN")
		cs := prevCenti + c.svarint()
		e := Entry{
			ASN:            inet.ASN(asn),
			Centi:          uint16(cs),
			VVPs:           uint16(c.upTo(math.MaxUint16, "vVPs")),
			TNodesMeasured: uint32(c.upTo(math.MaxUint32, "tNodes measured")),
		}
		e.TNodesFiltered = uint32(c.upTo(uint64(e.TNodesMeasured), "tNodes filtered"))
		if flags := c.byte(); flags > 1 {
			c.reject("entry flags %#x", flags)
		} else {
			e.Unanimous = flags == 1
		}
		if c.err != nil {
			return nil, c.err
		}
		if cs < 0 || cs > 10000 {
			return nil, fmt.Errorf("store: centi-score %d out of range", cs)
		}
		if i > 0 && asn <= prevASN {
			return nil, fmt.Errorf("store: entries not strictly ascending at ASN %d", asn)
		}
		rec.Entries = append(rec.Entries, e)
		prevASN, prevCenti = asn, cs
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(payload) {
		return nil, fmt.Errorf("store: %d bytes after the last entry", len(payload)-c.off)
	}
	return rec, nil
}

// frameRecord wraps a payload in its length+CRC frame.
func frameRecord(payload []byte) []byte {
	out := make([]byte, frameSize, frameSize+len(payload))
	binary.LittleEndian.PutUint32(out[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// loadSegment reads one segment file, returning its intact records in
// order and the byte offset of the last intact record's end. A truncated
// or corrupt tail is not an error: decoding simply stops there, and the
// returned offset lets the caller repair the file before appending.
// expectRound is the round index the first record must carry (contiguity
// across segments); a mismatch makes the whole segment unusable.
func loadSegment(path string, expectRound uint32) (recs []*RoundRecord, validEnd int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < segHeaderSize {
		return nil, 0, nil // truncated inside the header: no intact records
	}
	base, err := parseSegmentHeader(data)
	if err != nil || base != expectRound {
		return nil, 0, nil // foreign or corrupt header: treat as empty
	}
	off := int64(segHeaderSize)
	next := expectRound
	for {
		if int64(len(data))-off < frameSize {
			break
		}
		ln := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if ln > maxPayload || int64(len(data))-off-frameSize < int64(ln) {
			break
		}
		payload := data[off+frameSize : off+frameSize+int64(ln)]
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		rec, derr := decodeRecord(payload)
		if derr != nil || rec.Round != next {
			break
		}
		recs = append(recs, rec)
		off += frameSize + int64(ln)
		next++
	}
	return recs, off, nil
}

// copyPayloadTo streams a framed record to w.
func writeFramed(w io.Writer, rec *RoundRecord) (int, error) {
	return w.Write(frameRecord(encodeRecord(rec)))
}
