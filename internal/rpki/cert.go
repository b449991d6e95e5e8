// Package rpki implements the Resource Public Key Infrastructure substrate:
// trust anchors, resource (CA) certificates, Route Origin Authorizations,
// relying-party validation producing Validated ROA Payloads (VRPs), RFC 6811
// origin validation, and RFC 8416 SLURM local exceptions.
//
// Objects carry real Ed25519 signatures over a deterministic binary encoding
// so the relying party performs genuine cryptographic validation, including
// resource-containment (RFC 6487 §7) checks along the chain to one of the
// five RIR trust anchors.
package rpki

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"net/netip"

	"github.com/netsec-lab/rovista/internal/inet"
)

// RIR identifies one of the five Regional Internet Registries, each of which
// operates its own trust anchor and repository.
type RIR uint8

// The five RIRs.
const (
	APNIC RIR = iota
	RIPE
	ARIN
	AFRINIC
	LACNIC
)

// AllRIRs lists every RIR in a stable order.
var AllRIRs = []RIR{APNIC, RIPE, ARIN, AFRINIC, LACNIC}

// String implements fmt.Stringer.
func (r RIR) String() string {
	switch r {
	case APNIC:
		return "APNIC"
	case RIPE:
		return "RIPE NCC"
	case ARIN:
		return "ARIN"
	case AFRINIC:
		return "AFRINIC"
	case LACNIC:
		return "LACNIC"
	default:
		return fmt.Sprintf("RIR(%d)", uint8(r))
	}
}

// KeyPair is an Ed25519 key pair used to sign RPKI objects.
type KeyPair struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// NewKeyPair deterministically derives a key pair from a 32-byte seed
// expansion of the given values, keeping simulations reproducible.
func NewKeyPair(seed int64, discriminator string) *KeyPair {
	var buf bytes.Buffer
	binary.Write(&buf, binary.BigEndian, seed)
	buf.WriteString(discriminator)
	raw := buf.Bytes()
	s := make([]byte, ed25519.SeedSize)
	for i, b := range raw {
		s[i%ed25519.SeedSize] ^= b + byte(i)
	}
	priv := ed25519.NewKeyFromSeed(s)
	return &KeyPair{Public: priv.Public().(ed25519.PublicKey), private: priv}
}

// Sign signs msg with the private key.
func (k *KeyPair) Sign(msg []byte) []byte { return ed25519.Sign(k.private, msg) }

// ASNRange is an inclusive range of AS numbers.
type ASNRange struct {
	Lo, Hi inet.ASN
}

// Contains reports whether a falls in the range.
func (r ASNRange) Contains(a inet.ASN) bool { return a >= r.Lo && a <= r.Hi }

// ResourceSet is the set of Internet Number Resources bound to a
// certificate: IPv4 prefixes and ASN ranges.
type ResourceSet struct {
	Prefixes []netip.Prefix
	ASNs     []ASNRange
}

// ContainsPrefix reports whether p is covered by some prefix in the set.
func (s ResourceSet) ContainsPrefix(p netip.Prefix) bool {
	for _, own := range s.Prefixes {
		if own.Contains(p.Masked().Addr()) && own.Bits() <= p.Bits() {
			return true
		}
	}
	return false
}

// ContainsASN reports whether a is covered by some range in the set.
func (s ResourceSet) ContainsASN(a inet.ASN) bool {
	for _, r := range s.ASNs {
		if r.Contains(a) {
			return true
		}
	}
	return false
}

// ContainsAll reports whether every resource in o is contained in s
// (the RFC 6487 issuance requirement).
func (s ResourceSet) ContainsAll(o ResourceSet) bool {
	for _, p := range o.Prefixes {
		if !s.ContainsPrefix(p) {
			return false
		}
	}
	for _, r := range o.ASNs {
		if !s.ContainsASN(r.Lo) || !s.ContainsASN(r.Hi) {
			return false
		}
	}
	return true
}

// Certificate is a simplified RPKI resource certificate: it binds a
// ResourceSet to a public key and is signed by its issuer (or self-signed
// for trust anchors).
type Certificate struct {
	Subject   string
	Serial    uint64
	Resources ResourceSet
	PublicKey ed25519.PublicKey

	// Validity window in simulation days (inclusive).
	NotBefore, NotAfter int

	IssuerSubject string
	Signature     []byte
}

// encodeTBS produces the deterministic "to-be-signed" byte encoding.
func (c *Certificate) encodeTBS() []byte {
	var b bytes.Buffer
	writeStr(&b, "CERT")
	writeStr(&b, c.Subject)
	binary.Write(&b, binary.BigEndian, c.Serial)
	binary.Write(&b, binary.BigEndian, int64(c.NotBefore))
	binary.Write(&b, binary.BigEndian, int64(c.NotAfter))
	writeStr(&b, c.IssuerSubject)
	b.Write(c.PublicKey)
	binary.Write(&b, binary.BigEndian, uint32(len(c.Resources.Prefixes)))
	for _, p := range c.Resources.Prefixes {
		writePrefix(&b, p)
	}
	binary.Write(&b, binary.BigEndian, uint32(len(c.Resources.ASNs)))
	for _, r := range c.Resources.ASNs {
		binary.Write(&b, binary.BigEndian, uint32(r.Lo))
		binary.Write(&b, binary.BigEndian, uint32(r.Hi))
	}
	return b.Bytes()
}

func writeStr(b *bytes.Buffer, s string) {
	binary.Write(b, binary.BigEndian, uint32(len(s)))
	b.WriteString(s)
}

func writePrefix(b *bytes.Buffer, p netip.Prefix) {
	a := p.Masked().Addr().As4()
	b.Write(a[:])
	b.WriteByte(byte(p.Bits()))
}

// SignCertificate signs cert with the issuer's key, recording the issuer
// subject. For self-signed (trust anchor) certificates pass the cert's own
// subject and key.
func SignCertificate(cert *Certificate, issuerSubject string, issuerKey *KeyPair) {
	cert.IssuerSubject = issuerSubject
	cert.Signature = issuerKey.Sign(cert.encodeTBS())
}

// ValidAt reports whether day falls inside the certificate validity window.
func (c *Certificate) ValidAt(day int) bool {
	return day >= c.NotBefore && day <= c.NotAfter
}
