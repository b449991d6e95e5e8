// Package inet holds the small shared vocabulary of Internet number
// resources used across the repository: AS numbers and IPv4 prefix
// arithmetic helpers built on net/netip.
package inet

import (
	"fmt"
	"net/netip"
)

// ASN is an Autonomous System Number.
type ASN uint32

// String renders the conventional "AS64500" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// V4 converts a 32-bit integer to an IPv4 address.
func V4(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// V4Int converts an IPv4 address to its 32-bit integer value. It panics on
// non-IPv4 input, which is always a programming error in this codebase.
func V4Int(a netip.Addr) uint32 {
	if !a.Is4() {
		panic(fmt.Sprintf("inet: %v is not IPv4", a))
	}
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// PrefixKey packs a masked IPv4 prefix into a compact map key: the address
// in the high bits, the length in the low byte. It panics on non-IPv4 input
// (see V4Int).
func PrefixKey(p netip.Prefix) uint64 {
	return uint64(V4Int(p.Addr()))<<8 | uint64(uint8(p.Bits()))
}

// MaskKey returns the PrefixKey of addr truncated to plen bits, so a
// longest- or shortest-match walk probes one map key per length.
func MaskKey(addr uint32, plen int) uint64 {
	if plen == 0 {
		return 0
	}
	m := addr >> (32 - plen) << (32 - plen)
	return uint64(m)<<8 | uint64(uint8(plen))
}

// NthAddr returns the n-th address inside prefix p (0 is the network
// address). It panics when n exceeds the prefix size.
func NthAddr(p netip.Prefix, n uint32) netip.Addr {
	size := PrefixSize(p)
	if uint64(n) >= size {
		panic(fmt.Sprintf("inet: address index %d out of range for %v", n, p))
	}
	return V4(V4Int(p.Masked().Addr()) + n)
}

// PrefixSize returns the number of addresses covered by p.
func PrefixSize(p netip.Prefix) uint64 {
	return uint64(1) << (32 - p.Bits())
}

// SubnetAt returns the i-th subnet of p at the given longer bit length.
// For example SubnetAt(10.0.0.0/8, 16, 3) = 10.3.0.0/16.
func SubnetAt(p netip.Prefix, bits int, i uint32) netip.Prefix {
	if bits < p.Bits() || bits > 32 {
		panic(fmt.Sprintf("inet: bad subnet length %d for %v", bits, p))
	}
	n := uint64(1) << (bits - p.Bits())
	if uint64(i) >= n {
		panic(fmt.Sprintf("inet: subnet index %d out of range for %v -> /%d", i, p, bits))
	}
	base := V4Int(p.Masked().Addr())
	return netip.PrefixFrom(V4(base+i<<(32-bits)), bits)
}
