package daemon

import (
	"net/url"
	"strconv"
	"testing"

	"github.com/netsec-lab/rovista/internal/campaign"
)

// encodeWhatIfQuery is parseWhatIfQuery's inverse, for the round-trip
// property.
func encodeWhatIfQuery(q campaign.WhatIfQuery) url.Values {
	v := url.Values{"action": {q.Action}}
	for key, asn := range map[string]uint32{"asn": uint32(q.ASN), "attacker": uint32(q.Attacker), "victim": uint32(q.Victim)} {
		if asn != 0 {
			v.Set(key, strconv.FormatUint(uint64(asn), 10))
		}
	}
	if q.Prefix.IsValid() {
		v.Set("prefix", q.Prefix.String())
	}
	return v
}

// FuzzParseWhatIfQuery: /v1/whatif's parameters come straight off the wire.
// Parsing must never panic, and whatever it accepts must survive a trip
// through its own encoding unchanged.
func FuzzParseWhatIfQuery(f *testing.F) {
	for _, seed := range []string{
		"action=deploy-rov&asn=1001",
		"action=drop-route&asn=7&prefix=10.0.0.0/8",
		"action=hijack&attacker=5&victim=6&prefix=2001:db8::/32",
		"action=leak&asn=4294967295",
		"action=hijack&attacker=-1", "asn=1", "action=&asn=1",
		"action=x&prefix=10.0.0.1/8&prefix=bogus", "action=x&asn=4294967296", "%zz",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		values, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := parseWhatIfQuery(values)
		if err != nil {
			return
		}
		if q.Action == "" {
			t.Fatalf("accepted %q without an action", raw)
		}
		again, err := parseWhatIfQuery(encodeWhatIfQuery(q))
		if err != nil || again != q {
			t.Fatalf("%q parsed to %+v, which re-parses to %+v (%v)", raw, q, again, err)
		}
	})
}
