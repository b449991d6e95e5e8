// Package seedmix derives statistically independent sub-seeds from a parent
// seed and an arbitrary tuple of stream identifiers. The measurement pipeline
// keys every per-(vVP, tNode) round by (seed, asn, tNode address, vVP
// address); the xor scheme it once used (`seed ^ asn<<20 ^ ti<<8 ^ vi`, over
// list indices) collides for distinct tuples as soon as a component exceeds
// its shift window, silently correlating rounds. Mix runs every component through a full splitmix64
// avalanche instead, so distinct tuples yield distinct, well-scrambled seeds.
package seedmix

// splitmix64 is the finalizer from Steele et al., "Fast Splittable
// Pseudorandom Number Generators" (OOPSLA 2014) — a bijective avalanche over
// the full 64-bit space.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix absorbs the parts into a single derived seed. Each part passes through
// the splitmix64 avalanche before absorption, so low-entropy components
// (small indexes, sequential ASNs) still flip about half the output bits and
// cannot cancel each other the way xor-shift packing can.
func Mix(parts ...int64) int64 {
	h := uint64(0x2545f4914f6cdd1d)
	for _, p := range parts {
		h = splitmix64(h ^ uint64(p))
	}
	return int64(h)
}

// Source is a splitmix64 random source: O(1) seeding (unlike math/rand's
// default source, whose Seed walks a 607-word lag table) and a single
// multiply-xor per output. The pair-measurement stage clones host state per
// round, so cheap construction matters.
type Source struct {
	state uint64
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source { return &Source{state: uint64(seed)} }

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Int63 implements math/rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements math/rand.Source.
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }
