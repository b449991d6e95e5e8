package scan

import "encoding/binary"

// Permutation is a keyed bijection over [0, N), built from a four-round
// Feistel network with cycle-walking — the technique ZMap uses to visit the
// address space in a random-looking order without keeping state per target.
// The paper's ethics section (§5) relies on exactly this: probes to a host
// population are spread out "according to a random permutation of each pair
// of IP address and port number" so no target sees a burst.
type Permutation struct {
	n          uint64
	halfBits   uint
	halfMask   uint64
	roundKeys  [4]uint64
	domainBits uint
}

// NewPermutation creates a permutation of [0, n) keyed by seed. n must be
// at least 1.
func NewPermutation(n uint64, seed int64) *Permutation {
	if n == 0 {
		n = 1
	}
	// Domain: the smallest even-bit-width power of two >= n (Feistel wants
	// an even split); indexes landing outside [0, n) are cycle-walked.
	bits := uint(1)
	for (uint64(1) << bits) < n {
		bits++
	}
	if bits%2 == 1 {
		bits++
	}
	p := &Permutation{
		n:          n,
		domainBits: bits,
		halfBits:   bits / 2,
	}
	p.halfMask = (uint64(1) << p.halfBits) - 1
	s := uint64(seed)
	for i := range p.roundKeys {
		s = splitmix64(s)
		p.roundKeys[i] = s
	}
	return p
}

// splitmix64 is the SplitMix64 mixing function — a fast, well-distributed
// 64-bit mixer used both for round-key derivation and as the round function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// feistel applies the 4-round network over the even-bit domain.
func (p *Permutation) feistel(x uint64) uint64 {
	l := x >> p.halfBits
	r := x & p.halfMask
	for _, k := range p.roundKeys {
		l, r = r, l^(splitmix64(r^k)&p.halfMask)
	}
	return l<<p.halfBits | r
}

// Index maps position i (0 ≤ i < N) to the i-th element of the permuted
// sequence. Cycle-walking re-applies the network until the value lands back
// inside [0, N); since the domain is less than 4N, the expected walk is
// short and always terminates (the network is a bijection on the domain).
func (p *Permutation) Index(i uint64) uint64 {
	x := p.feistel(i % p.n)
	for x >= p.n {
		x = p.feistel(x)
	}
	return x
}

// N returns the permutation size.
func (p *Permutation) N() uint64 { return p.n }

// pairKey packs (index, port) for permutations over address/port pairs.
func pairKey(i uint32, port uint16) uint64 {
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], i)
	binary.BigEndian.PutUint16(b[4:6], port)
	return binary.BigEndian.Uint64(b[:])
}
