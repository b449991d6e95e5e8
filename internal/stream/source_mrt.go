package stream

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"os"
	"sort"
	"time"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/mrt"
)

// MRTReplaySource replays a file of concatenated TABLE_DUMP_V2 RIB
// snapshots as a route-event stream: the first snapshot becomes a baseline
// announce batch, and each subsequent snapshot is diffed against its
// predecessor into announce/withdraw events (an origination present before
// and absent now withdraws, and vice versa). Snapshots are spaced on the
// virtual clock by their MRT timestamps; Speed compresses the wall-clock
// sleep between them.
type MRTReplaySource struct {
	// Path names the archive file; R overrides it (for tests).
	Path string
	R    io.Reader
	// Speed divides the inter-snapshot wall delay: 60 replays an hourly
	// capture in minutes, 0 (or anything <=0 … and missing timestamps)
	// replays flat out. Virtual time is unaffected.
	Speed float64
}

func (s *MRTReplaySource) Name() string { return "mrt-replay" }

// origination is one (origin AS, prefix) pair extracted from a RIB entry:
// the origin is the last hop of the AS_PATH (the feeder itself for
// locally-originated entries with an empty path).
type origination struct {
	ASN    inet.ASN
	Prefix netip.Prefix
}

func originations(d *mrt.Dump) map[origination]bool {
	set := make(map[origination]bool, len(d.Entries))
	for _, e := range d.Entries {
		o := origination{Prefix: e.Prefix}
		if len(e.Path) > 0 {
			o.ASN = e.Path[len(e.Path)-1]
		} else {
			o.ASN = d.Peers[e.PeerIndex].ASN
		}
		set[o] = true
	}
	return set
}

// diffOriginations renders cur-vs-prev as a deterministic event batch.
func diffOriginations(prev, cur map[origination]bool) []bgp.RouteEvent {
	var events []bgp.RouteEvent
	for o := range cur {
		if !prev[o] {
			events = append(events, bgp.RouteEvent{Kind: bgp.EvAnnounce, AS: o.ASN, Prefix: o.Prefix})
		}
	}
	for o := range prev {
		if !cur[o] {
			events = append(events, bgp.RouteEvent{Kind: bgp.EvWithdraw, AS: o.ASN, Prefix: o.Prefix})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.AS != b.AS {
			return a.AS < b.AS
		}
		return a.Prefix.String() < b.Prefix.String()
	})
	return events
}

func (s *MRTReplaySource) Run(ctx context.Context, in <-chan Msg, out chan<- Msg) error {
	r := s.R
	if r == nil {
		f, err := os.Open(s.Path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	dumps, err := mrt.ReadDumps(r)
	if err != nil {
		return fmt.Errorf("stream: mrt replay: %w", err)
	}

	base := dumps[0].Timestamp
	prev := make(map[origination]bool)
	var seq uint64
	for i, d := range dumps {
		if i > 0 && s.Speed > 0 && d.Timestamp > dumps[i-1].Timestamp {
			wall := time.Duration(float64(d.Timestamp-dumps[i-1].Timestamp) / s.Speed * float64(time.Second))
			if err := sleep(ctx, wall); err != nil {
				return err
			}
		}
		cur := originations(d)
		events := diffOriginations(prev, cur)
		prev = cur
		if len(events) == 0 {
			continue
		}
		m := Msg{Seq: seq, Time: float64(d.Timestamp - base), Events: events}
		seq++
		if err := send(ctx, out, m); err != nil {
			return err
		}
	}
	return nil
}
