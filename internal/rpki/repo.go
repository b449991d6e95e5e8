package rpki

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/netsec-lab/rovista/internal/inet"
)

// Repository is one RIR's published object store: a self-signed trust
// anchor certificate, the CA certificates issued beneath it, and ROAs.
type Repository struct {
	RIR         RIR
	TrustAnchor *Certificate
	Certs       []*Certificate
	ROAs        []*ROA
}

// Authority wraps a Repository together with the private keys needed to
// issue new objects into it. Worlds and tests use it as the "RIR hosted
// portal" through which resource holders register ROAs.
type Authority struct {
	Repo *Repository
	keys map[string]*KeyPair
}

// NewAuthority creates an RIR authority whose trust anchor holds the given
// resources for the given validity window (simulation days).
func NewAuthority(rir RIR, seed int64, resources ResourceSet, notBefore, notAfter int) *Authority {
	subject := fmt.Sprintf("%s-trust-anchor", rir)
	key := NewKeyPair(seed, subject)
	ta := &Certificate{
		Subject:   subject,
		Serial:    1,
		Resources: resources,
		PublicKey: key.Public,
		NotBefore: notBefore,
		NotAfter:  notAfter,
	}
	SignCertificate(ta, subject, key) // self-signed
	return &Authority{
		Repo: &Repository{RIR: rir, TrustAnchor: ta},
		keys: map[string]*KeyPair{subject: key},
	}
}

// IssueCA issues a CA certificate for subject holding res, signed by the
// parent (the trust anchor when parentSubject is empty).
func (a *Authority) IssueCA(subject, parentSubject string, res ResourceSet, notBefore, notAfter int) (*Certificate, error) {
	if parentSubject == "" {
		parentSubject = a.Repo.TrustAnchor.Subject
	}
	parentKey, ok := a.keys[parentSubject]
	if !ok {
		return nil, fmt.Errorf("rpki: unknown parent %q", parentSubject)
	}
	if _, dup := a.keys[subject]; dup {
		return nil, fmt.Errorf("rpki: subject %q already exists", subject)
	}
	key := NewKeyPair(int64(len(a.keys))*7919+int64(a.Repo.RIR), subject)
	cert := &Certificate{
		Subject:   subject,
		Serial:    uint64(len(a.Repo.Certs) + 2),
		Resources: res,
		PublicKey: key.Public,
		NotBefore: notBefore,
		NotAfter:  notAfter,
	}
	SignCertificate(cert, parentSubject, parentKey)
	a.Repo.Certs = append(a.Repo.Certs, cert)
	a.keys[subject] = key
	return cert, nil
}

// IssueROA issues and publishes a ROA signed by caSubject's key.
func (a *Authority) IssueROA(caSubject string, asid inet.ASN, prefixes []ROAPrefix, notBefore, notAfter int) (*ROA, error) {
	key, ok := a.keys[caSubject]
	if !ok {
		return nil, fmt.Errorf("rpki: unknown CA %q", caSubject)
	}
	roa := &ROA{
		ASID:      asid,
		Prefixes:  prefixes,
		NotBefore: notBefore,
		NotAfter:  notAfter,
	}
	SignROA(roa, caSubject, key)
	a.Repo.ROAs = append(a.Repo.ROAs, roa)
	return roa, nil
}

// RevokeROA removes a published ROA (modelling expiry/withdrawal). It
// reports whether the ROA was present.
func (a *Authority) RevokeROA(roa *ROA) bool {
	for i, r := range a.Repo.ROAs {
		if r == roa {
			a.Repo.ROAs = append(a.Repo.ROAs[:i], a.Repo.ROAs[i+1:]...)
			return true
		}
	}
	return false
}

// ValidationError records one object rejected during relying-party
// validation and why.
type ValidationError struct {
	Object string
	Reason string
}

// Error implements error.
func (e ValidationError) Error() string { return fmt.Sprintf("%s: %s", e.Object, e.Reason) }

// RelyingParty fetches and cryptographically validates repository contents,
// producing the VRP set routers consume (the role Routinator plays in the
// paper's measurement loop).
//
// A RelyingParty is meant to live as long as the repositories it watches:
// it remembers which signatures the previous Validate found good, so a day
// on which k objects changed costs k Ed25519 verifications plus a hash per
// object. Only that one answer is remembered. Key length, validity windows,
// the issuer-chain fixpoint, RFC 6487 resource containment and RFC 6482
// well-formedness are evaluated on every object in every run, so the
// result — VRPs and errors — is what a fresh RelyingParty returns.
//
// The signature checks themselves run on every core: before its serial
// pass, Validate verifies each memo miss that pass can reach (prefetch).
// The serial pass then walks the objects in the same order as ever and, at
// each check the memo cannot answer, takes the prefetched verdict (or
// verifies on the spot, for a check the prefetch did not foresee). No check
// is skipped, weakened or reordered in what decides the result.
type RelyingParty struct {
	// Day is the simulation day at which validity windows are evaluated.
	Day int
	// Verifications is the number of Ed25519 verifications the latest
	// Validate consumed, i.e. the signature checks its serial pass reached
	// that the memo could not answer. A verdict the prefetch computed but
	// the pass never reached is neither counted nor memoised.
	Verifications int

	// memo holds SHA-256(public key, signature, TBS bytes) of every
	// signature check that succeeded in the latest Validate, and nothing
	// else: a failure is never stored, nothing is entered at issue time, and
	// an object absent from (or changed in) the latest run has no entry, so
	// the memo is bounded by the repositories' size. next collects the
	// running Validate's entries.
	memo, next map[[sha256.Size]byte]struct{}
	// pre holds the running Validate's prefetched verdicts by memo key.
	pre map[[sha256.Size]byte]bool
}

// verify is the one place a signature meets a key. ed25519.Verify panics on
// a key of the wrong length; a hostile object must fail the check instead.
func verify(pub, tbs, sig []byte) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, tbs, sig)
}

// memoKey is the memo's key for one signature check. The caller checks
// the lengths first, so the hashed concatenation is unambiguous.
func memoKey(pub, tbs, sig []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(pub)
	h.Write(sig)
	h.Write(tbs)
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// checkable reports whether a signature check can succeed at all; verified
// fails the others without counting them.
func checkable(pub, sig []byte) bool {
	return len(pub) == ed25519.PublicKeySize && len(sig) == ed25519.SignatureSize
}

// verified is verify behind the memo; every signature check of Validate's
// serial pass — trust anchor, CA certificate, ROA — goes through it. A memo
// miss is counted and answered by the prefetched verdict when there is one.
func (rp *RelyingParty) verified(pub, tbs, sig []byte) bool {
	if !checkable(pub, sig) {
		return false
	}
	key := memoKey(pub, tbs, sig)
	if _, ok := rp.next[key]; ok {
		return true
	}
	if _, ok := rp.memo[key]; !ok {
		rp.Verifications++
		good, pre := rp.pre[key]
		if !pre {
			good = verify(pub, tbs, sig)
		}
		if !good {
			return false
		}
	}
	rp.next[key] = struct{}{}
	return true
}

// prefetch verifies, on up to GOMAXPROCS workers, every memo miss the
// serial pass of Validate can reach: each trust anchor's self-signature,
// and each certificate or well-formed ROA whose issuer or signer subject
// some object of its repository holds, under that object's key (the last
// published under the subject, which is the one the pass keeps if several
// validate). It returns the verdicts by memo key. The prefetch decides
// nothing: the pass consumes the verdicts it reaches, in its own order, and
// one it never reaches (an issuer that did not validate) is dropped.
func (rp *RelyingParty) prefetch(repos []*Repository) map[[sha256.Size]byte]bool {
	type check struct {
		pub, sig []byte
		tbs      func() []byte
		key      [sha256.Size]byte
		ran, ok  bool
	}
	var checks []check
	add := func(pub, sig []byte, tbs func() []byte) {
		if checkable(pub, sig) {
			checks = append(checks, check{pub: pub, sig: sig, tbs: tbs})
		}
	}
	for _, repo := range repos {
		ta := repo.TrustAnchor
		if ta == nil {
			continue
		}
		add(ta.PublicKey, ta.Signature, ta.encodeTBS)
		keys := map[string][]byte{ta.Subject: ta.PublicKey}
		for _, c := range repo.Certs {
			keys[c.Subject] = c.PublicKey
		}
		for _, c := range repo.Certs {
			if pub, ok := keys[c.IssuerSubject]; ok {
				add(pub, c.Signature, c.encodeTBS)
			}
		}
		for _, roa := range repo.ROAs {
			if pub, ok := keys[roa.SignerSubject]; ok && roa.wellFormed() {
				add(pub, roa.Signature, roa.encodeTBS)
			}
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(checks)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(checks); i = int(next.Add(1) - 1) {
				c := &checks[i]
				tbs := c.tbs()
				c.key = memoKey(c.pub, tbs, c.sig)
				if _, hit := rp.memo[c.key]; !hit {
					c.ran, c.ok = true, verify(c.pub, tbs, c.sig)
				}
			}
		}()
	}
	wg.Wait()
	pre := make(map[[sha256.Size]byte]bool)
	for i := range checks {
		if c := &checks[i]; c.ran {
			pre[c.key] = c.ok
		}
	}
	return pre
}

// Validate processes the given repositories and returns the resulting VRP
// set plus any per-object validation errors.
func (rp *RelyingParty) Validate(repos []*Repository) (*VRPSet, []ValidationError) {
	rp.Verifications = 0
	rp.next = make(map[[sha256.Size]byte]struct{}, len(rp.memo))
	rp.pre = rp.prefetch(repos)
	var errs []ValidationError
	var vrps []VRP
	for _, repo := range repos {
		ta := repo.TrustAnchor
		if ta == nil {
			errs = append(errs, ValidationError{repo.RIR.String(), "missing trust anchor"})
			continue
		}
		if !rp.verified(ta.PublicKey, ta.encodeTBS(), ta.Signature) {
			errs = append(errs, ValidationError{ta.Subject, "trust anchor self-signature invalid"})
			continue
		}
		if !ta.ValidAt(rp.Day) {
			errs = append(errs, ValidationError{ta.Subject, "trust anchor expired"})
			continue
		}
		// Validate CA certificates to a fixpoint so chains of arbitrary
		// depth resolve regardless of publication order.
		valid := map[string]*Certificate{ta.Subject: ta}
		pending := append([]*Certificate(nil), repo.Certs...)
		for progress := true; progress; {
			progress = false
			var next []*Certificate
			for _, c := range pending {
				issuer, ok := valid[c.IssuerSubject]
				if !ok {
					next = append(next, c)
					continue
				}
				progress = true
				switch {
				case !rp.verified(issuer.PublicKey, c.encodeTBS(), c.Signature):
					errs = append(errs, ValidationError{c.Subject, "bad signature"})
				case !c.ValidAt(rp.Day):
					errs = append(errs, ValidationError{c.Subject, "outside validity window"})
				case !issuer.Resources.ContainsAll(c.Resources):
					errs = append(errs, ValidationError{c.Subject, "resources exceed issuer (RFC 6487)"})
				default:
					valid[c.Subject] = c
				}
			}
			pending = next
		}
		for _, c := range pending {
			errs = append(errs, ValidationError{c.Subject, "issuer not found or invalid"})
		}
		// Validate ROAs against their (validated) signing CA.
		for _, roa := range repo.ROAs {
			signer, ok := valid[roa.SignerSubject]
			if !ok {
				errs = append(errs, ValidationError{roaName(roa), "signer not validated"})
				continue
			}
			switch {
			case !roa.wellFormed():
				errs = append(errs, ValidationError{roaName(roa), "malformed (RFC 6482)"})
			case !rp.verified(signer.PublicKey, roa.encodeTBS(), roa.Signature):
				errs = append(errs, ValidationError{roaName(roa), "bad signature"})
			case !roa.ValidAt(rp.Day):
				errs = append(errs, ValidationError{roaName(roa), "outside validity window"})
			case !signer.Resources.ContainsAll(roa.resources()):
				errs = append(errs, ValidationError{roaName(roa), "prefixes exceed signer resources"})
			default:
				for _, p := range roa.Prefixes {
					vrps = append(vrps, VRP{ASN: roa.ASID, Prefix: p.Prefix.Masked(), MaxLength: p.MaxLength})
				}
			}
		}
	}
	rp.memo, rp.next, rp.pre = rp.next, nil, nil
	return NewVRPSet(vrps), errs
}

func roaName(r *ROA) string {
	if len(r.Prefixes) > 0 {
		return fmt.Sprintf("ROA(%v->%v)", r.Prefixes[0].Prefix, r.ASID)
	}
	return fmt.Sprintf("ROA(empty->%v)", r.ASID)
}

// Ensure netip is referenced (prefix type used across the API).
var _ = netip.Prefix{}
