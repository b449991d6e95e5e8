package stream

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"time"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/rtr"
)

// RTRSource polls an RPKI-to-Router cache and emits a Msg whenever the
// cache's serial moves: the message carries the full replacement VRP
// snapshot plus one EvROAChange event scoped to the prefixes whose VRPs
// changed, so the sink re-validates exactly the affected routing state.
// The initial Reset establishes a baseline silently (the world already
// holds a VRP view at startup).
//
// Cancellation mid-sync is handled by aborting the client: RTR reads have
// no deadline, so a watchdog closes the transport when ctx falls, which
// unblocks the read loop instead of leaking it.
type RTRSource struct {
	// Dial opens the transport to the cache. Called once.
	Dial func() (io.ReadWriter, error)
	// Poll is the refresh interval (default 1s).
	Poll time.Duration
}

func (s *RTRSource) Name() string { return "rtr-delta" }

func (s *RTRSource) Run(ctx context.Context, in <-chan Msg, out chan<- Msg) error {
	rw, err := s.Dial()
	if err != nil {
		return fmt.Errorf("stream: rtr dial: %w", err)
	}
	client := rtr.NewClient(rw)

	// Watchdog: a cancelled ctx aborts any in-flight sync so the blocking
	// ReadPDU returns instead of leaking the goroutine.
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		select {
		case <-ctx.Done():
			client.Abort()
		case <-watchdogDone:
		}
	}()

	if err := client.Reset(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("stream: rtr reset: %w", err)
	}
	prev := client.VRPSet().All()
	start := time.Now()

	poll := s.Poll
	if poll <= 0 {
		poll = time.Second
	}
	var seq uint64
	for {
		if err := sleep(ctx, poll); err != nil {
			return err
		}
		before := client.Serial()
		if err := client.Refresh(); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("stream: rtr refresh: %w", err)
		}
		if client.Serial() == before {
			continue
		}
		cur := client.VRPSet().All()
		changed := changedPrefixes(prev, cur)
		prev = cur
		if len(changed) == 0 {
			continue
		}
		m := Msg{
			Seq:    seq,
			Time:   time.Since(start).Seconds(),
			VRPs:   rpki.NewVRPSet(cur),
			Serial: client.Serial(),
			Events: []bgp.RouteEvent{{Kind: bgp.EvROAChange, Prefixes: changed}},
		}
		seq++
		if err := send(ctx, out, m); err != nil {
			return err
		}
	}
}

// changedPrefixes returns the deduplicated prefixes of VRPs present in
// exactly one of the two snapshots — the roa-change dirty scope.
func changedPrefixes(old, new []rpki.VRP) []netip.Prefix {
	key := func(v rpki.VRP) string {
		return fmt.Sprintf("%v|%d|%d", v.Prefix, v.MaxLength, v.ASN)
	}
	oldSet := make(map[string]rpki.VRP, len(old))
	for _, v := range old {
		oldSet[key(v)] = v
	}
	newSet := make(map[string]rpki.VRP, len(new))
	seen := make(map[netip.Prefix]bool)
	var out []netip.Prefix
	add := func(p netip.Prefix) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, v := range new {
		newSet[key(v)] = v
		if _, ok := oldSet[key(v)]; !ok {
			add(v.Prefix)
		}
	}
	for _, v := range old {
		if _, ok := newSet[key(v)]; !ok {
			add(v.Prefix)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
