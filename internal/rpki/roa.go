package rpki

import (
	"bytes"
	"encoding/binary"
	"net/netip"

	"github.com/netsec-lab/rovista/internal/inet"
)

// ROAPrefix is one prefix entry inside a ROA: the prefix itself plus the
// maximum length the authorized AS may announce (RFC 6482).
type ROAPrefix struct {
	Prefix    netip.Prefix
	MaxLength int
}

// ROA is a Route Origin Authorization: it authorizes ASID to originate the
// listed prefixes. It is signed by the end-entity key of the issuing CA
// certificate, which in this simplified profile is the CA certificate named
// by SignerSubject.
type ROA struct {
	ASID     inet.ASN
	Prefixes []ROAPrefix

	// Validity window in simulation days (inclusive).
	NotBefore, NotAfter int

	SignerSubject string
	Signature     []byte
}

func (r *ROA) encodeTBS() []byte {
	var b bytes.Buffer
	writeStr(&b, "ROA")
	binary.Write(&b, binary.BigEndian, uint32(r.ASID))
	binary.Write(&b, binary.BigEndian, int64(r.NotBefore))
	binary.Write(&b, binary.BigEndian, int64(r.NotAfter))
	writeStr(&b, r.SignerSubject)
	binary.Write(&b, binary.BigEndian, uint32(len(r.Prefixes)))
	for _, p := range r.Prefixes {
		writePrefix(&b, p.Prefix)
		b.WriteByte(byte(p.MaxLength))
	}
	return b.Bytes()
}

// SignROA signs the ROA with the CA's key.
func SignROA(r *ROA, signerSubject string, key *KeyPair) {
	r.SignerSubject = signerSubject
	r.Signature = key.Sign(r.encodeTBS())
}

// ValidAt reports whether day falls inside the ROA's validity window.
func (r *ROA) ValidAt(day int) bool {
	return day >= r.NotBefore && day <= r.NotAfter
}

// resources returns the ResourceSet a signer must hold to issue this ROA.
func (r *ROA) resources() ResourceSet {
	var rs ResourceSet
	for _, p := range r.Prefixes {
		rs.Prefixes = append(rs.Prefixes, p.Prefix)
	}
	return rs
}

// wellFormed checks the RFC 6482 structural constraints.
func (r *ROA) wellFormed() bool {
	if len(r.Prefixes) == 0 {
		return false
	}
	for _, p := range r.Prefixes {
		if !p.Prefix.IsValid() || !p.Prefix.Addr().Is4() {
			return false
		}
		if p.MaxLength < p.Prefix.Bits() || p.MaxLength > 32 {
			return false
		}
	}
	return true
}
