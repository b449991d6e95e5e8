package campaign

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/hijack"
	"github.com/netsec-lab/rovista/internal/inet"
)

// fuzzWorld is built once and must be returned to exactly this state by
// every fuzz iteration — the invariant under test.
var (
	fuzzOnce     sync.Once
	fuzzW        *core.World
	fuzzOrigins  []inet.ASN
	fuzzASNs     []inet.ASN
	fuzzBaseline map[inet.ASN][]bgp.Route
)

func fuzzSetup(f *testing.F) {
	f.Helper()
	fuzzOnce.Do(func() {
		w, err := core.BuildWorld(core.SmallWorldConfig(97))
		if err != nil {
			f.Fatalf("BuildWorld: %v", err)
		}
		if err := w.AdvanceTo(0); err != nil {
			f.Fatalf("AdvanceTo: %v", err)
		}
		fuzzW = w
		fuzzASNs = w.Topo.ASNs
		for _, asn := range w.Topo.ASNs {
			if len(w.Topo.Info[asn].Prefixes) > 0 {
				fuzzOrigins = append(fuzzOrigins, asn)
			}
		}
		fuzzBaseline = make(map[inet.ASN][]bgp.Route, len(fuzzASNs))
		for _, asn := range fuzzASNs {
			fuzzBaseline[asn] = w.Graph.AS(asn).Routes()
		}
	})
}

const fuzzRounds = 5

// decodeSchedule turns raw fuzz bytes into an attack schedule, 6 bytes per
// attack: kind, attacker index, victim index, subprefix selector, start
// round, duration. Arbitrary bytes decode to arbitrary overlap patterns —
// including same-prefix collisions, windows ending past the last round
// (announce-without-withdraw until teardown), and zero-length tails.
func decodeSchedule(data []byte) []Scheduled {
	var out []Scheduled
	for len(data) >= 6 && len(out) < 16 {
		kind := hijack.AttackKind(data[0] % 4)
		attacker := fuzzASNs[int(data[1])%len(fuzzASNs)]
		victim := fuzzOrigins[int(data[2])%len(fuzzOrigins)]
		sub := uint32(data[3])
		start := int(data[4]) % fuzzRounds
		dur := 1 + int(data[5])%4 // may run past the final round
		data = data[6:]
		if attacker == victim {
			continue
		}
		vp := fuzzW.Topo.Info[victim].Prefixes[0]
		end := start + dur
		if end > fuzzRounds {
			end = fuzzRounds
		}
		out = append(out, Scheduled{
			Attack: hijack.NewAttack(kind, attacker, victim, vp, sub),
			Start:  start,
			End:    end,
		})
	}
	return out
}

// sameRoute is reflect.DeepEqual on two routes, field by field: it holds the
// fuzz loop's check to a fraction of DeepEqual's cost, which was as much as
// the campaign's own floods. FuzzCampaignSchedule fails when bgp.Route
// grows a field it does not compare.
func sameRoute(a, b bgp.Route) bool {
	return a.Prefix == b.Prefix && slices.Equal(a.Path, b.Path) && a.LearnedFrom == b.LearnedFrom &&
		a.Rel == b.Rel && a.Validity == b.Validity && a.LocalPref == b.LocalPref &&
		a.SelfOriginated() == b.SelfOriginated()
}

// FuzzCampaignSchedule throws arbitrary schedules — overlapping attack
// windows, repeated launches of the same prefix, announces whose withdraw
// only happens at teardown — at the campaign step machinery and checks the
// core restoration invariant: after all rounds plus finish(), every Loc-RIB
// in the world is bit-identical to its pre-campaign state.
func FuzzCampaignSchedule(f *testing.F) {
	fuzzSetup(f)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 5, 0, 1})
	f.Add([]byte{1, 7, 2, 9, 1, 3, 2, 7, 2, 9, 1, 3})                   // leak + same-attacker overlap
	f.Add([]byte{3, 4, 1, 0, 0, 4, 0, 4, 1, 0, 2, 4})                   // forged + colliding exact hijack
	f.Add([]byte{0, 3, 3, 0, 4, 4, 1, 3, 3, 1, 4, 4, 2, 3, 3, 2, 4, 4}) // everything ends at teardown

	if n := reflect.TypeFor[bgp.Route]().NumField(); n != 7 {
		f.Fatalf("bgp.Route has %d fields; sameRoute compares 7", n)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sched := decodeSchedule(data)
		c := NewWithSchedule(fuzzW, nil, Config{Rounds: fuzzRounds}, sched)
		for i := 0; i < fuzzRounds; i++ {
			if err := c.step(i, 0); err != nil { // the world stays on day 0
				t.Fatalf("step(%d): %v", i, err)
			}
		}
		if err := c.finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
		for _, asn := range fuzzASNs {
			if got := fuzzW.Graph.AS(asn).Routes(); !slices.EqualFunc(got, fuzzBaseline[asn], sameRoute) {
				t.Fatalf("AS %v Loc-RIB not restored after campaign teardown (schedule %v)", asn, sched)
			}
		}
	})
}
