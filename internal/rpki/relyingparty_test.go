package rpki

import (
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"testing"

	"github.com/netsec-lab/rovista/internal/inet"
)

// The relying party's memo must be invisible: a RelyingParty kept across
// days returns, at every step of any history of the repositories, exactly
// the VRPs and errors a fresh one returns. rpFixture is a small two-RIR PKI
// plus the mutation set — CURE's object taxonomy (expired, malformed,
// resource-overclaiming, cyclic, re-keyed) applied to live objects — that
// the scripted test and the fuzz target drive it with.
type rpFixture struct {
	auths []*Authority
	day   int
	long  RelyingParty // lives across steps; the fresh one is the oracle
}

func newRPFixture() *rpFixture {
	f := &rpFixture{}
	for i, rir := range []RIR{RIPE, ARIN} {
		first := uint32(10 + 10*i)
		a := NewAuthority(rir, int64(100+i), ResourceSet{
			Prefixes: []netip.Prefix{netip.PrefixFrom(inet.V4(first<<24), 8)},
			ASNs:     []ASNRange{{1, 1 << 20}},
		}, 0, 40)
		for c := uint32(0); c < 3; c++ {
			sub := netip.PrefixFrom(inet.V4(first<<24|c<<16), 16)
			name := fmt.Sprintf("ca-%d-%d", i, c)
			a.IssueCA(name, "", ResourceSet{Prefixes: []netip.Prefix{sub}}, int(c), 30+int(c))
			a.IssueROA(name, inet.ASN(100+c), []ROAPrefix{{sub, 20}}, 2*int(c), 20+int(c))
		}
		// One chain of depth two, published child first.
		leaf := netip.PrefixFrom(inet.V4(first<<24|9<<16), 20)
		a.IssueCA("lir", "", ResourceSet{Prefixes: []netip.Prefix{netip.PrefixFrom(inet.V4(first<<24|9<<16), 16)}}, 0, 35)
		a.IssueCA("leaf", "lir", ResourceSet{Prefixes: []netip.Prefix{leaf}}, 0, 35)
		a.IssueROA("leaf", 900, []ROAPrefix{{leaf, 24}}, 5, 25)
		n := len(a.Repo.Certs)
		a.Repo.Certs[n-1], a.Repo.Certs[n-2] = a.Repo.Certs[n-2], a.Repo.Certs[n-1]
		f.auths = append(f.auths, a)
	}
	return f
}

func (f *rpFixture) repos() []*Repository {
	var out []*Repository
	for _, a := range f.auths {
		out = append(out, a.Repo)
	}
	return out
}

// certs lists every certificate, trust anchors included, with its authority.
func (f *rpFixture) certs() (certs []*Certificate, of []*Authority) {
	for _, a := range f.auths {
		certs = append(certs, a.Repo.TrustAnchor)
		of = append(of, a)
		for _, c := range a.Repo.Certs {
			certs = append(certs, c)
			of = append(of, a)
		}
	}
	return certs, of
}

func (f *rpFixture) roas() (roas []*ROA, of []*Authority) {
	for _, a := range f.auths {
		for _, r := range a.Repo.ROAs {
			roas = append(roas, r)
			of = append(of, a)
		}
	}
	return roas, of
}

func (f *rpFixture) objects() int {
	certs, _ := f.certs()
	roas, _ := f.roas()
	return len(certs) + len(roas)
}

// resign signs c again with its named issuer's real key, when the authority
// holds one: the mutation then survives the signature check and has to be
// caught by the check it targets.
func resign(a *Authority, c *Certificate) {
	if key, ok := a.keys[c.IssuerSubject]; ok {
		SignCertificate(c, c.IssuerSubject, key)
	}
}

const rpMutations = 12

// mutate applies mutation kind to the object target selects; arg picks the
// variant. Every byte triple is a legal call.
func (f *rpFixture) mutate(kind, target, arg byte) {
	certs, certOf := f.certs()
	roas, roaOf := f.roas()
	c, ca := certs[int(target)%len(certs)], certOf[int(target)%len(certs)]
	var r *ROA
	var ra *Authority
	if len(roas) > 0 {
		r, ra = roas[int(target)%len(roas)], roaOf[int(target)%len(roas)]
	}
	switch kind % rpMutations {
	case 0: // move the clock, across window edges in either direction
		f.day = int(arg) % 48
	case 1: // issue a ROA; odd arg: outside the CA's space
		if c == ca.Repo.TrustAnchor {
			return
		}
		p := netip.PrefixFrom(inet.V4(uint32(arg)<<24), 24)
		if arg&1 == 0 && len(c.Resources.Prefixes) > 0 {
			p = netip.PrefixFrom(c.Resources.Prefixes[0].Addr(), 24)
		}
		ca.IssueROA(c.Subject, inet.ASN(arg), []ROAPrefix{{p, 24 + int(arg)%9}}, f.day-int(arg)%3, f.day+int(arg)%5)
	case 2: // withdraw a ROA
		if r != nil {
			ra.RevokeROA(r)
		}
	case 3: // flip a signature bit (flip it again to repair)
		if arg&1 == 0 || r == nil {
			c.Signature[int(arg)%len(c.Signature)] ^= 1
		} else {
			r.Signature[int(arg)%len(r.Signature)] ^= 1
		}
	case 4: // edit a signed field without re-signing
		switch {
		case r != nil && arg%4 == 0:
			r.ASID ^= 1
		case r != nil && arg%4 == 1 && len(r.Prefixes) > 0:
			r.Prefixes[0].MaxLength ^= 1
		case arg%4 == 2:
			c.Serial ^= 1
		default:
			c.NotAfter ^= 1
		}
	case 5: // swap in another certificate's key
		c.PublicKey = certs[int(arg)%len(certs)].PublicKey
		if arg&1 == 1 {
			resign(ca, c)
		}
	case 6: // truncate (or empty) a key; correctly signed on odd arg
		c.PublicKey = c.PublicKey[:int(arg)%(len(c.PublicKey)+1)]
		if arg&1 == 1 {
			resign(ca, c)
		}
	case 7: // overclaim: resources beyond the issuer's, correctly signed
		c.Resources.Prefixes = append(c.Resources.Prefixes[:len(c.Resources.Prefixes):len(c.Resources.Prefixes)],
			netip.PrefixFrom(inet.V4(uint32(arg)<<24), 8))
		resign(ca, c)
	case 8: // shrink an issuer under its already-verified children
		c.Resources.Prefixes = nil
		resign(ca, c)
	case 9: // a certificate that names itself as issuer
		c.IssuerSubject = c.Subject
		resign(ca, c)
	case 10: // malformed ROA, correctly signed
		if r != nil {
			r.Prefixes = r.Prefixes[:int(arg)%(len(r.Prefixes)+1)]
			if key, ok := ra.keys[r.SignerSubject]; ok {
				SignROA(r, r.SignerSubject, key)
			}
		}
	case 11: // repair: re-sign the certificate as it now stands
		resign(ca, c)
	}
}

// step validates with the long-lived relying party and with a fresh one and
// requires identical output and a memo no larger than the repositories.
func (f *rpFixture) step(t testing.TB, label string) {
	t.Helper()
	f.long.Day = f.day
	got, gotErrs := f.long.Validate(f.repos())
	want, wantErrs := (&RelyingParty{Day: f.day}).Validate(f.repos())
	if !got.Equal(want) {
		t.Fatalf("%s (day %d): VRPs differ:\nmemo  %v\nfresh %v", label, f.day, got.All(), want.All())
	}
	if !reflect.DeepEqual(gotErrs, wantErrs) {
		t.Fatalf("%s (day %d): errors differ:\nmemo  %v\nfresh %v", label, f.day, gotErrs, wantErrs)
	}
	if n := f.objects(); len(f.long.memo) > n {
		t.Fatalf("%s: memo holds %d entries for %d objects", label, len(f.long.memo), n)
	}
}

func TestRelyingPartyMemoMatchesFresh(t *testing.T) {
	f := newRPFixture()
	wantVerified := func(label string, n int) {
		t.Helper()
		f.step(t, label)
		if f.long.Verifications != n {
			t.Fatalf("%s: %d Ed25519 verifications, want %d", label, f.long.Verifications, n)
		}
	}
	f.day = 10
	wantVerified("first run", f.objects())
	if len(f.long.memo) != f.objects() {
		t.Fatalf("memo holds %d entries after a clean run over %d objects", len(f.long.memo), f.objects())
	}
	wantVerified("unchanged second run", 0)

	// Window edges: objects expire and come back without a verification;
	// a ROA whose CA is outside its window never reached its signature check
	// and is verified when the CA returns.
	for _, day := range []int{0, 1, 2, 5, 19, 20, 21, 25, 26, 31, 33, 36, 41, 10} {
		f.day = day
		f.step(t, "window edge")
	}

	// Issue k ROAs: exactly k verifications.
	const k = 5
	ca := f.auths[0].Repo.Certs[0]
	var issued []*ROA
	for i := 0; i < k; i++ {
		p := netip.PrefixFrom(inet.NthAddr(ca.Resources.Prefixes[0], uint32(i)<<8), 24)
		roa, err := f.auths[0].IssueROA(ca.Subject, inet.ASN(500+i), []ROAPrefix{{p, 24}}, 0, 40)
		if err != nil {
			t.Fatal(err)
		}
		issued = append(issued, roa)
	}
	wantVerified("after issuing k ROAs", k)

	// Revocation costs nothing and its memo entry goes with it.
	before := len(f.long.memo)
	f.auths[0].RevokeROA(issued[0])
	wantVerified("after revoking one", 0)
	if len(f.long.memo) != before-1 {
		t.Fatalf("memo went %d -> %d entries on a revocation", before, len(f.long.memo))
	}

	// Each mutation alone, on a fixture whose every signature the memo holds
	// from a successful run; then a day later; then repaired.
	for kind := byte(3); kind < rpMutations; kind++ {
		for _, target := range []byte{0, 1, 2, 4, 5, 6, 7} { // TAs, CAs, the lir and its leaf
			for _, arg := range []byte{0, 1, 2, 31} {
				f := newRPFixture()
				f.day = 10
				f.step(t, "warm-up")
				label := fmt.Sprintf("mutation %d target %d arg %d", kind, target, arg)
				f.mutate(kind, target, arg)
				f.step(t, label)
				f.day = 26
				f.step(t, label+", later")
				f.mutate(11, target, 0)
				f.step(t, label+", re-signed")
			}
		}
	}
}

// TestRelyingPartyAtAnyWorkerCount: Validate verifies its memo misses on
// GOMAXPROCS workers before the serial pass consumes the verdicts, and that
// must not show. Over the mutation set, a long-lived relying party run at
// GOMAXPROCS 1 and one run at 4 return, at every step, the same VRPs, the
// same errors in the same order and the same number of verifications.
func TestRelyingPartyAtAnyWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := [2]int{1, 4}
	step := func(f *rpFixture, rps *[2]RelyingParty, label string) {
		t.Helper()
		var vrps [2]*VRPSet
		var errs [2][]ValidationError
		for i := range rps {
			runtime.GOMAXPROCS(procs[i])
			rps[i].Day = f.day
			vrps[i], errs[i] = rps[i].Validate(f.repos())
		}
		if !vrps[0].Equal(vrps[1]) {
			t.Fatalf("%s (day %d): VRPs differ:\nprocs=1 %v\nprocs=4 %v", label, f.day, vrps[0].All(), vrps[1].All())
		}
		if !reflect.DeepEqual(errs[0], errs[1]) {
			t.Fatalf("%s (day %d): errors differ:\nprocs=1 %v\nprocs=4 %v", label, f.day, errs[0], errs[1])
		}
		if rps[0].Verifications != rps[1].Verifications {
			t.Fatalf("%s (day %d): %d verifications at procs=1, %d at procs=4", label, f.day, rps[0].Verifications, rps[1].Verifications)
		}
	}
	for kind := byte(0); kind < rpMutations; kind++ {
		for _, target := range []byte{0, 1, 2, 4, 5, 6, 7} {
			for _, arg := range []byte{0, 1, 31} {
				f := newRPFixture()
				var rps [2]RelyingParty
				f.day = 10
				step(f, &rps, "first run")
				label := fmt.Sprintf("mutation %d target %d arg %d", kind, target, arg)
				f.mutate(kind, target, arg)
				step(f, &rps, label)
				f.day = 26
				step(f, &rps, label+", later")
				f.mutate(11, target, 0)
				step(f, &rps, label+", re-signed")
			}
		}
	}
}

// TestHostileKeysFailWithoutPanic: ed25519.Verify panics on a key that is
// not 32 bytes; no object may reach it with one. A truncated trust-anchor
// key fails the anchor, and a correctly signed CA that carries a short key
// stays valid itself while everything it signed reports a bad signature.
func TestHostileKeysFailWithoutPanic(t *testing.T) {
	f := newRPFixture()
	f.day = 10
	ta := f.auths[0].Repo.TrustAnchor
	ta.PublicKey = ta.PublicKey[:31]
	if verify(ta.PublicKey, ta.encodeTBS(), ta.Signature) {
		t.Fatal("a 31-byte key verified a signature")
	}
	ca := f.auths[1].Repo.Certs[0]
	ca.PublicKey = ca.PublicKey[:31]
	resign(f.auths[1], ca)
	if roa := f.auths[1].Repo.ROAs[0]; verify(ca.PublicKey, roa.encodeTBS(), roa.Signature) {
		t.Fatal("a 31-byte key verified a ROA")
	}

	f.step(t, "truncated keys")
	_, errs := f.long.Validate(f.repos())
	has := func(object, reason string) bool {
		for _, e := range errs {
			if e == (ValidationError{object, reason}) {
				return true
			}
		}
		return false
	}
	if !has(ta.Subject, "trust anchor self-signature invalid") {
		t.Fatalf("truncated trust-anchor key not reported: %v", errs)
	}
	if !has(roaName(f.auths[1].Repo.ROAs[0]), "bad signature") {
		t.Fatalf("ROA under the short-keyed CA not reported as a bad signature: %v", errs)
	}
	if has(ca.Subject, "bad signature") {
		t.Fatalf("the correctly signed CA itself was rejected: %v", errs)
	}
}

// FuzzRelyingParty drives the mutation set from fuzz bytes (three per step:
// kind, target, variant) with the fresh relying party as oracle. Validate
// must never panic, whatever the objects have become.
func FuzzRelyingParty(f *testing.F) {
	f.Add([]byte{0, 0, 10})
	f.Add([]byte{6, 0, 31, 0, 0, 5, 6, 1, 33, 11, 1, 0})              // truncated TA key, then a signed short CA key
	f.Add([]byte{3, 2, 8, 0, 0, 11, 3, 2, 8, 0, 0, 12})               // break a signature, repair it
	f.Add([]byte{8, 7, 0, 0, 0, 9, 7, 1, 200, 9, 5, 1, 0, 0, 30})     // shrunk issuer, overclaim, self-issued
	f.Add([]byte{1, 1, 4, 1, 1, 5, 2, 0, 0, 10, 3, 0, 5, 4, 7, 4, 2}) // issue, revoke, malform, re-key
	f.Fuzz(func(t *testing.T, data []byte) {
		fx := newRPFixture()
		fx.day = 10
		fx.step(t, "baseline")
		for i := 0; i+2 < len(data) && i < 3*64; i += 3 {
			fx.mutate(data[i], data[i+1], data[i+2])
			fx.step(t, fmt.Sprintf("step %d: mutation %d target %d arg %d", i/3, data[i]%rpMutations, data[i+1], data[i+2]))
		}
	})
}
