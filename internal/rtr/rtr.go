// Package rtr implements the RPKI-to-Router protocol (RFC 8210) in the wire
// format routers actually consume: the relying party (cache) serves
// Validated ROA Payloads to router clients as binary PDUs over a byte
// stream, with serial-incremental updates, session identifiers, and the
// Serial Query / Reset Query / Cache Response / End of Data exchange.
//
// The paper's background (§2.2) pins this as the link between the relying
// party and ROV-performing routers; this package makes the repository's VRP
// plumbing real down to the octet level. The cache and client speak over
// any net.Conn (tests use net.Pipe), and the client maintains a VRP set
// usable directly by the BGP import policies.
package rtr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
)

// Version is the protocol version implemented (RFC 8210 = version 1).
const Version = 1

// PDUType enumerates RFC 8210 PDU types.
type PDUType uint8

// PDU types (RFC 8210 §5).
const (
	TypeSerialNotify  PDUType = 0
	TypeSerialQuery   PDUType = 1
	TypeResetQuery    PDUType = 2
	TypeCacheResponse PDUType = 3
	TypeIPv4Prefix    PDUType = 4
	TypeIPv6Prefix    PDUType = 6
	TypeEndOfData     PDUType = 7
	TypeCacheReset    PDUType = 8
	TypeErrorReport   PDUType = 10
)

// String implements fmt.Stringer.
func (t PDUType) String() string {
	switch t {
	case TypeSerialNotify:
		return "Serial Notify"
	case TypeSerialQuery:
		return "Serial Query"
	case TypeResetQuery:
		return "Reset Query"
	case TypeCacheResponse:
		return "Cache Response"
	case TypeIPv4Prefix:
		return "IPv4 Prefix"
	case TypeIPv6Prefix:
		return "IPv6 Prefix"
	case TypeEndOfData:
		return "End of Data"
	case TypeCacheReset:
		return "Cache Reset"
	case TypeErrorReport:
		return "Error Report"
	default:
		return fmt.Sprintf("PDUType(%d)", uint8(t))
	}
}

// Flags for prefix PDUs.
const (
	// FlagAnnounce marks an added VRP; withdrawn VRPs clear the bit.
	FlagAnnounce uint8 = 1
)

// Error codes (RFC 8210 §5.10) used by this implementation.
const (
	ErrCorruptData        uint16 = 0
	ErrInternalError      uint16 = 1
	ErrNoDataAvailable    uint16 = 2
	ErrInvalidRequest     uint16 = 3
	ErrUnsupportedVersion uint16 = 4
	ErrUnsupportedPDUType uint16 = 5
)

// PDU is one protocol data unit.
type PDU struct {
	Version uint8
	Type    PDUType
	// Session is the session ID (or the error code for Error Report PDUs;
	// zero/flags field for queries per RFC 8210's header reuse).
	Session uint16
	// Serial carries the serial number where applicable.
	Serial uint32

	// Prefix fields (IPv4 Prefix PDUs).
	Flags     uint8
	Prefix    netip.Prefix
	MaxLength uint8
	ASN       inet.ASN

	// Text carries Error Report diagnostic text.
	Text string
}

const headerLen = 8

var (
	// ErrShortPDU reports a truncated input.
	ErrShortPDU = errors.New("rtr: short PDU")
	// ErrBadLength reports a header length inconsistent with its type.
	ErrBadLength = errors.New("rtr: bad PDU length")
)

// Marshal encodes the PDU into RFC 8210 wire format.
func (p *PDU) Marshal() []byte {
	switch p.Type {
	case TypeSerialNotify, TypeSerialQuery:
		b := make([]byte, 12)
		p.header(b, 12)
		binary.BigEndian.PutUint32(b[8:], p.Serial)
		return b
	case TypeResetQuery, TypeCacheResponse, TypeCacheReset:
		b := make([]byte, 8)
		p.header(b, 8)
		return b
	case TypeIPv4Prefix:
		b := make([]byte, 20)
		p.header(b, 20)
		b[8] = p.Flags
		b[9] = uint8(p.Prefix.Bits())
		b[10] = p.MaxLength
		// b[11] reserved
		a := p.Prefix.Masked().Addr().As4()
		copy(b[12:16], a[:])
		binary.BigEndian.PutUint32(b[16:], uint32(p.ASN))
		return b
	case TypeEndOfData:
		// Version-1 End of Data carries refresh/retry/expire intervals; we
		// emit the RFC defaults.
		b := make([]byte, 24)
		p.header(b, 24)
		binary.BigEndian.PutUint32(b[8:], p.Serial)
		binary.BigEndian.PutUint32(b[12:], 3600) // refresh
		binary.BigEndian.PutUint32(b[16:], 600)  // retry
		binary.BigEndian.PutUint32(b[20:], 7200) // expire
		return b
	case TypeErrorReport:
		text := []byte(p.Text)
		// Encapsulated-PDU length 0, then text length + text.
		n := headerLen + 4 + 0 + 4 + len(text)
		b := make([]byte, n)
		p.header(b, n)
		binary.BigEndian.PutUint32(b[8:], 0)
		binary.BigEndian.PutUint32(b[12:], uint32(len(text)))
		copy(b[16:], text)
		return b
	default:
		b := make([]byte, 8)
		p.header(b, 8)
		return b
	}
}

func (p *PDU) header(b []byte, length int) {
	b[0] = p.Version
	b[1] = uint8(p.Type)
	binary.BigEndian.PutUint16(b[2:], p.Session)
	binary.BigEndian.PutUint32(b[4:], uint32(length))
}

// ReadPDU reads and decodes one PDU from r.
func ReadPDU(r io.Reader) (*PDU, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	length := binary.BigEndian.Uint32(hdr[4:])
	if length < headerLen || length > 1<<16 {
		return nil, ErrBadLength
	}
	body := make([]byte, length-headerLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrShortPDU, err)
	}
	p := &PDU{
		Version: hdr[0],
		Type:    PDUType(hdr[1]),
		Session: binary.BigEndian.Uint16(hdr[2:]),
	}
	switch p.Type {
	case TypeSerialNotify, TypeSerialQuery:
		if len(body) != 4 {
			return nil, ErrBadLength
		}
		p.Serial = binary.BigEndian.Uint32(body)
	case TypeResetQuery, TypeCacheResponse, TypeCacheReset:
		if len(body) != 0 {
			return nil, ErrBadLength
		}
	case TypeIPv4Prefix:
		if len(body) != 12 {
			return nil, ErrBadLength
		}
		p.Flags = body[0]
		plen := int(body[1])
		p.MaxLength = body[2]
		addr := netip.AddrFrom4([4]byte(body[4:8]))
		if plen > 32 {
			return nil, fmt.Errorf("rtr: prefix length %d out of range", plen)
		}
		// RFC 8210 §5.6: Max Length lies in [Prefix Length, 32]. Below
		// it the VRP would invalidate its own prefix; above, it is no
		// IPv4 length at all.
		if int(p.MaxLength) < plen || p.MaxLength > 32 {
			return nil, fmt.Errorf("rtr: max length %d out of range for /%d", p.MaxLength, plen)
		}
		p.Prefix = netip.PrefixFrom(addr, plen)
		p.ASN = inet.ASN(binary.BigEndian.Uint32(body[8:12]))
	case TypeEndOfData:
		if len(body) != 16 {
			return nil, ErrBadLength
		}
		p.Serial = binary.BigEndian.Uint32(body)
	case TypeErrorReport:
		if len(body) < 8 {
			return nil, ErrBadLength
		}
		// Both lengths are the peer's. Summed as uint64 they cannot wrap;
		// as uint32, an encapsulated length of 0xFFFFFFF8 passed the check
		// below as 0 and the slice after it panicked.
		encLen := uint64(binary.BigEndian.Uint32(body))
		if 8+encLen > uint64(len(body)) {
			return nil, ErrBadLength
		}
		textLen := uint64(binary.BigEndian.Uint32(body[4+encLen:]))
		if 8+encLen+textLen > uint64(len(body)) {
			return nil, ErrBadLength
		}
		p.Text = string(body[8+encLen : 8+encLen+textLen])
	default:
		return nil, fmt.Errorf("rtr: unsupported PDU type %v", p.Type)
	}
	return p, nil
}

// VRPOf converts an IPv4 Prefix PDU to a VRP.
func (p *PDU) VRPOf() rpki.VRP {
	return rpki.VRP{ASN: p.ASN, Prefix: p.Prefix.Masked(), MaxLength: int(p.MaxLength)}
}

// PrefixPDU builds an IPv4 Prefix PDU from a VRP.
func PrefixPDU(v rpki.VRP, announce bool, session uint16) *PDU {
	flags := uint8(0)
	if announce {
		flags = FlagAnnounce
	}
	return &PDU{
		Version:   Version,
		Type:      TypeIPv4Prefix,
		Session:   session,
		Flags:     flags,
		Prefix:    v.Prefix,
		MaxLength: uint8(v.MaxLength),
		ASN:       v.ASN,
	}
}
