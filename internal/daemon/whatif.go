package daemon

import (
	"fmt"
	"net/netip"
	"net/url"
	"strconv"

	"github.com/netsec-lab/rovista/internal/campaign"
	"github.com/netsec-lab/rovista/internal/inet"
)

// parseWhatIfQuery maps /v1/whatif query parameters onto a campaign
// counterfactual: ?action=deploy-rov&asn=N, ?action=drop-route&asn=N&prefix=P,
// ?action=hijack&attacker=N&prefix=P[&victim=M], ?action=leak&asn=N.
func parseWhatIfQuery(q url.Values) (campaign.WhatIfQuery, error) {
	var out campaign.WhatIfQuery
	out.Action = q.Get("action")
	if out.Action == "" {
		return out, fmt.Errorf("missing ?action= (deploy-rov, drop-route, hijack, or leak)")
	}
	for _, f := range []struct {
		key string
		dst *inet.ASN
	}{{"asn", &out.ASN}, {"attacker", &out.Attacker}, {"victim", &out.Victim}} {
		if v := q.Get(f.key); v != "" {
			n, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				return out, fmt.Errorf("bad %s %q", f.key, v)
			}
			*f.dst = inet.ASN(n)
		}
	}
	if v := q.Get("prefix"); v != "" {
		p, err := netip.ParsePrefix(v)
		if err != nil {
			return out, fmt.Errorf("bad prefix %q", v)
		}
		out.Prefix = p
	}
	return out, nil
}
