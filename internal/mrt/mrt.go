// Package mrt implements the MRT export format (RFC 6396) that RouteViews
// and RIPE RIS publish their collector snapshots in — specifically the
// TABLE_DUMP_V2 RIB encoding (PEER_INDEX_TABLE + RIB_IPV4_UNICAST) with
// four-octet AS_PATH attributes.
//
// The paper's pipeline starts from RouteViews MRT dumps; this package lets
// the repository's collector views round-trip through the same byte format
// a real deployment would archive, so downstream tooling (and tests) can
// consume either.
package mrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"sort"

	"github.com/netsec-lab/rovista/internal/collectors"
	"github.com/netsec-lab/rovista/internal/inet"
)

// MRT record types/subtypes used (RFC 6396 §4).
const (
	TypeTableDumpV2 uint16 = 13

	SubtypePeerIndexTable uint16 = 1
	SubtypeRIBIPv4Unicast uint16 = 2
)

// BGP path attribute type codes.
const (
	attrOrigin uint8 = 1
	attrASPath uint8 = 2
)

// asPathSequence is the AS_PATH segment type for an ordered path.
const asPathSequence uint8 = 2

// ErrMalformed reports undecodable MRT input.
var ErrMalformed = errors.New("mrt: malformed record")

// Record is one decoded MRT record.
type Record struct {
	Timestamp uint32
	Type      uint16
	Subtype   uint16
	Body      []byte
}

// writeRecord emits one MRT record with header.
func writeRecord(w io.Writer, timestamp uint32, typ, subtype uint16, body []byte) error {
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:], timestamp)
	binary.BigEndian.PutUint16(hdr[4:], typ)
	binary.BigEndian.PutUint16(hdr[6:], subtype)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadRecord decodes one MRT record from r; io.EOF signals a clean end.
func ReadRecord(r io.Reader) (*Record, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: header: %v", ErrMalformed, err)
	}
	length := binary.BigEndian.Uint32(hdr[8:])
	if length > 1<<24 {
		return nil, fmt.Errorf("%w: implausible length %d", ErrMalformed, length)
	}
	// The body grows as its bytes arrive: a header that claims 16 MiB in
	// front of a few bytes must not cost 16 MiB.
	body, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if err == nil && len(body) != int(length) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrMalformed, err)
	}
	return &Record{
		Timestamp: binary.BigEndian.Uint32(hdr[0:]),
		Type:      binary.BigEndian.Uint16(hdr[4:]),
		Subtype:   binary.BigEndian.Uint16(hdr[6:]),
		Body:      body,
	}, nil
}

// Dump is the decoded content of a TABLE_DUMP_V2 archive.
type Dump struct {
	CollectorName string
	Timestamp     uint32 // from the archive's PEER_INDEX_TABLE record
	Peers         []Peer
	Entries       []RIBEntry
}

// Peer is one PEER_INDEX_TABLE entry.
type Peer struct {
	ASN  inet.ASN
	Addr netip.Addr
}

// RIBEntry is one (prefix, peer, path) observation.
type RIBEntry struct {
	Prefix    netip.Prefix
	PeerIndex int
	Path      []inet.ASN
}

// WriteView serializes a collector view (plus its peer table) as a
// TABLE_DUMP_V2 archive. Peer addresses are synthesized from the feeder
// ASNs (the simulator's collectors peer at the AS level).
func WriteView(w io.Writer, name string, view *collectors.View, feeders []inet.ASN, timestamp uint32) error {
	peerIdx := make(map[inet.ASN]int, len(feeders))
	peers := make([]Peer, 0, len(feeders))
	for _, f := range feeders {
		if _, dup := peerIdx[f]; dup {
			continue
		}
		peerIdx[f] = len(peers)
		peers = append(peers, Peer{ASN: f, Addr: inet.V4(uint32(f))})
	}
	if err := writeRecord(w, timestamp, TypeTableDumpV2, SubtypePeerIndexTable, marshalPeerIndex(name, peers)); err != nil {
		return err
	}

	prefixes := view.Prefixes()
	for seq, p := range prefixes {
		obs := view.Routes(p)
		// Stable peer order within the entry.
		sort.Slice(obs, func(i, j int) bool { return obs[i].Feeder < obs[j].Feeder })
		body, err := marshalRIBEntry(uint32(seq), p, obs, peerIdx, timestamp)
		if err != nil {
			return err
		}
		if err := writeRecord(w, timestamp, TypeTableDumpV2, SubtypeRIBIPv4Unicast, body); err != nil {
			return err
		}
	}
	return nil
}

func marshalPeerIndex(name string, peers []Peer) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.BigEndian, uint32(0)) // collector BGP ID
	binary.Write(&b, binary.BigEndian, uint16(len(name)))
	b.WriteString(name)
	binary.Write(&b, binary.BigEndian, uint16(len(peers)))
	for _, p := range peers {
		// Peer type 0x02: AS number is 32 bits, address is IPv4.
		b.WriteByte(0x02)
		binary.Write(&b, binary.BigEndian, uint32(0)) // peer BGP ID
		a := p.Addr.As4()
		b.Write(a[:])
		binary.Write(&b, binary.BigEndian, uint32(p.ASN))
	}
	return b.Bytes()
}

func marshalRIBEntry(seq uint32, p netip.Prefix, obs []collectors.RouteObs, peerIdx map[inet.ASN]int, timestamp uint32) ([]byte, error) {
	var b bytes.Buffer
	binary.Write(&b, binary.BigEndian, seq)
	b.WriteByte(uint8(p.Bits()))
	nb := (p.Bits() + 7) / 8
	addr := p.Masked().Addr().As4()
	b.Write(addr[:nb])
	if len(obs) > math.MaxUint16 {
		return nil, fmt.Errorf("mrt: %d observations of %v do not fit one RIB entry", len(obs), p)
	}
	binary.Write(&b, binary.BigEndian, uint16(len(obs)))
	for _, o := range obs {
		idx, ok := peerIdx[o.Feeder]
		if !ok {
			return nil, fmt.Errorf("mrt: observation from unknown feeder %v", o.Feeder)
		}
		binary.Write(&b, binary.BigEndian, uint16(idx))
		binary.Write(&b, binary.BigEndian, timestamp)
		attrs := marshalAttrs(o.Path)
		if len(attrs) > math.MaxUint16 {
			return nil, fmt.Errorf("mrt: a %d-hop AS path does not fit a RIB entry", len(o.Path))
		}
		binary.Write(&b, binary.BigEndian, uint16(len(attrs)))
		b.Write(attrs)
	}
	return b.Bytes(), nil
}

// marshalAttrs encodes ORIGIN and a four-octet AS_PATH.
func marshalAttrs(path []inet.ASN) []byte {
	var b bytes.Buffer
	// ORIGIN: flags 0x40 (transitive), type 1, len 1, value 0 (IGP).
	b.Write([]byte{0x40, attrOrigin, 1, 0})
	// AS_PATH: AS_SEQUENCE segments of 4-byte ASNs, at most 255 to a
	// segment (it counts them in one byte), in an extended-length attribute
	// once they outgrow a one-byte length.
	var seg bytes.Buffer
	for first := true; first || len(path) > 0; first = false {
		n := min(len(path), 255)
		seg.WriteByte(asPathSequence)
		seg.WriteByte(uint8(n))
		for _, asn := range path[:n] {
			binary.Write(&seg, binary.BigEndian, uint32(asn))
		}
		path = path[n:]
	}
	if seg.Len() > 255 {
		b.Write([]byte{0x50, attrASPath}) // transitive, extended length
		binary.Write(&b, binary.BigEndian, uint16(seg.Len()))
	} else {
		b.Write([]byte{0x40, attrASPath, uint8(seg.Len())})
	}
	b.Write(seg.Bytes())
	return b.Bytes()
}

// ReadDump parses a single TABLE_DUMP_V2 archive.
func ReadDump(r io.Reader) (*Dump, error) {
	dumps, err := ReadDumps(r)
	if err != nil {
		return nil, err
	}
	if len(dumps) > 1 {
		return nil, fmt.Errorf("%w: %d concatenated archives (use ReadDumps)", ErrMalformed, len(dumps))
	}
	return dumps[0], nil
}

// ReadDumps parses a stream of concatenated TABLE_DUMP_V2 archives — the
// shape of a longitudinal capture where successive RIB snapshots are
// appended to one file. A new dump begins at each PEER_INDEX_TABLE record;
// dumps are returned in stream order so callers can diff neighbors into
// announce/withdraw deltas.
func ReadDumps(r io.Reader) ([]*Dump, error) {
	var dumps []*Dump
	var d *Dump
	for {
		rec, err := ReadRecord(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if rec.Type != TypeTableDumpV2 {
			continue // tolerate foreign record types, as real parsers do
		}
		switch rec.Subtype {
		case SubtypePeerIndexTable:
			name, peers, err := parsePeerIndex(rec.Body)
			if err != nil {
				return nil, err
			}
			d = &Dump{CollectorName: name, Timestamp: rec.Timestamp, Peers: peers}
			dumps = append(dumps, d)
		case SubtypeRIBIPv4Unicast:
			if d == nil {
				return nil, fmt.Errorf("%w: RIB entry before peer index", ErrMalformed)
			}
			entries, err := parseRIBEntry(rec.Body, len(d.Peers))
			if err != nil {
				return nil, err
			}
			d.Entries = append(d.Entries, entries...)
		}
	}
	if len(dumps) == 0 {
		return nil, fmt.Errorf("%w: missing peer index table", ErrMalformed)
	}
	return dumps, nil
}

func parsePeerIndex(b []byte) (string, []Peer, error) {
	if len(b) < 8 {
		return "", nil, ErrMalformed
	}
	nameLen := int(binary.BigEndian.Uint16(b[4:]))
	if len(b) < 8+nameLen {
		return "", nil, ErrMalformed
	}
	name := string(b[6 : 6+nameLen])
	off := 6 + nameLen
	count := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	// A peer takes at least 11 bytes: no more can follow than fit.
	peers := make([]Peer, 0, min(count, (len(b)-off)/11))
	for i := 0; i < count; i++ {
		if off >= len(b) {
			return "", nil, ErrMalformed
		}
		typ := b[off]
		off++
		off += 4 // peer BGP ID
		var addr netip.Addr
		if typ&0x01 != 0 { // IPv6 peer address
			if off+16 > len(b) {
				return "", nil, ErrMalformed
			}
			addr = netip.AddrFrom16([16]byte(b[off : off+16]))
			off += 16
		} else {
			if off+4 > len(b) {
				return "", nil, ErrMalformed
			}
			addr = netip.AddrFrom4([4]byte(b[off : off+4]))
			off += 4
		}
		var asn uint32
		if typ&0x02 != 0 { // 4-octet AS
			if off+4 > len(b) {
				return "", nil, ErrMalformed
			}
			asn = binary.BigEndian.Uint32(b[off:])
			off += 4
		} else {
			if off+2 > len(b) {
				return "", nil, ErrMalformed
			}
			asn = uint32(binary.BigEndian.Uint16(b[off:]))
			off += 2
		}
		peers = append(peers, Peer{ASN: inet.ASN(asn), Addr: addr})
	}
	return name, peers, nil
}

func parseRIBEntry(b []byte, peerCount int) ([]RIBEntry, error) {
	if len(b) < 5 {
		return nil, ErrMalformed
	}
	plen := int(b[4])
	if plen > 32 {
		return nil, fmt.Errorf("%w: prefix length %d", ErrMalformed, plen)
	}
	nb := (plen + 7) / 8
	if len(b) < 5+nb+2 {
		return nil, ErrMalformed
	}
	var addr4 [4]byte
	copy(addr4[:], b[5:5+nb])
	// Bits past the prefix length are padding, not address.
	prefix := netip.PrefixFrom(netip.AddrFrom4(addr4), plen).Masked()
	off := 5 + nb
	count := int(binary.BigEndian.Uint16(b[off:]))
	off += 2

	var out []RIBEntry
	for i := 0; i < count; i++ {
		if off+8 > len(b) {
			return nil, ErrMalformed
		}
		peerIdx := int(binary.BigEndian.Uint16(b[off:]))
		if peerIdx >= peerCount {
			return nil, fmt.Errorf("%w: peer index %d out of range", ErrMalformed, peerIdx)
		}
		off += 2
		off += 4 // originated time
		attrLen := int(binary.BigEndian.Uint16(b[off:]))
		off += 2
		if off+attrLen > len(b) {
			return nil, ErrMalformed
		}
		path, err := parseASPath(b[off : off+attrLen])
		if err != nil {
			return nil, err
		}
		off += attrLen
		out = append(out, RIBEntry{Prefix: prefix, PeerIndex: peerIdx, Path: path})
	}
	return out, nil
}

// parseASPath walks the BGP path attributes for the four-octet AS_PATH.
func parseASPath(b []byte) ([]inet.ASN, error) {
	off := 0
	for off+3 <= len(b) {
		flags := b[off]
		typ := b[off+1]
		var alen, hdr int
		if flags&0x10 != 0 { // extended length
			if off+4 > len(b) {
				return nil, ErrMalformed
			}
			alen = int(binary.BigEndian.Uint16(b[off+2:]))
			hdr = 4
		} else {
			alen = int(b[off+2])
			hdr = 3
		}
		if off+hdr+alen > len(b) {
			return nil, ErrMalformed
		}
		val := b[off+hdr : off+hdr+alen]
		if typ == attrASPath {
			return parseASPathSegments(val)
		}
		off += hdr + alen
	}
	return nil, nil // no AS_PATH attribute: locally originated
}

func parseASPathSegments(b []byte) ([]inet.ASN, error) {
	var out []inet.ASN
	off := 0
	for off < len(b) {
		if off+2 > len(b) {
			return nil, ErrMalformed
		}
		segType := b[off]
		n := int(b[off+1])
		off += 2
		if off+4*n > len(b) {
			return nil, ErrMalformed
		}
		for i := 0; i < n; i++ {
			asn := binary.BigEndian.Uint32(b[off:])
			off += 4
			if segType == asPathSequence {
				out = append(out, inet.ASN(asn))
			}
		}
	}
	return out, nil
}

// Observations converts the dump back into collector route observations.
func (d *Dump) Observations() []collectors.RouteObs {
	out := make([]collectors.RouteObs, 0, len(d.Entries))
	for _, e := range d.Entries {
		out = append(out, collectors.RouteObs{
			Prefix: e.Prefix,
			Path:   e.Path,
			Feeder: d.Peers[e.PeerIndex].ASN,
		})
	}
	return out
}
