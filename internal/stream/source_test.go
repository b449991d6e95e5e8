package stream

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/collectors"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/mrt"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/rtr"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// writeSnapshot converges a 4-AS graph where AS 3 originates the given
// prefixes and appends its collector view to buf as one MRT archive.
func writeSnapshot(t *testing.T, buf *bytes.Buffer, timestamp uint32, originated ...netip.Prefix) {
	t.Helper()
	g := bgp.NewGraph()
	g.Link(1, 2, bgp.Peer)
	g.Link(1, 3, bgp.Customer)
	g.Link(2, 3, bgp.Customer)
	g.AS(3).Originated = originated
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	feeders := []inet.ASN{1, 2}
	coll := &collectors.Collector{Name: "rv-test", Feeders: feeders}
	if err := mrt.WriteView(buf, "rv-test", coll.Snapshot(g), feeders, timestamp); err != nil {
		t.Fatal(err)
	}
}

// TestMRTReplayDiffsSnapshots: the first snapshot becomes a baseline
// announce batch; the second, which drops one prefix and adds another,
// becomes exactly one withdraw plus one announce.
func TestMRTReplayDiffsSnapshots(t *testing.T) {
	var buf bytes.Buffer
	writeSnapshot(t, &buf, 1000, pfx("10.3.0.0/16"), pfx("10.30.0.0/20"))
	writeSnapshot(t, &buf, 2000, pfx("10.3.0.0/16"), pfx("10.99.0.0/16"))

	sink := &collectSink{}
	p := NewPipeline(4, &MRTReplaySource{R: &buf}, sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sink.msgs) != 2 {
		t.Fatalf("messages = %d, want 2", len(sink.msgs))
	}

	base := sink.msgs[0]
	if base.Time != 0 || len(base.Events) != 2 {
		t.Fatalf("baseline = %+v", base)
	}
	for _, ev := range base.Events {
		if ev.Kind != bgp.EvAnnounce || ev.AS != 3 {
			t.Fatalf("baseline event = %+v", ev)
		}
	}

	delta := sink.msgs[1]
	if delta.Time != 1000 {
		t.Fatalf("delta virtual time = %v, want 1000", delta.Time)
	}
	var ann, wd int
	for _, ev := range delta.Events {
		switch {
		case ev.Kind == bgp.EvAnnounce && ev.Prefix == pfx("10.99.0.0/16"):
			ann++
		case ev.Kind == bgp.EvWithdraw && ev.Prefix == pfx("10.30.0.0/20"):
			wd++
		default:
			t.Fatalf("unexpected delta event %+v", ev)
		}
	}
	if ann != 1 || wd != 1 {
		t.Fatalf("delta = %d announces, %d withdraws", ann, wd)
	}
}

func sampleVRPs(asn inet.ASN) *rpki.VRPSet {
	return rpki.NewVRPSet([]rpki.VRP{
		{ASN: asn, Prefix: pfx("10.0.0.0/8"), MaxLength: 16},
		{ASN: 64501, Prefix: pfx("192.0.2.0/24"), MaxLength: 24},
	})
}

// TestRTRSourceEmitsDeltas: an RTR cache update must surface as one Msg
// carrying the replacement VRP set and a roa-change event scoped to the
// changed prefixes — and cancelling the pipeline mid-poll must not leak
// the client's read goroutine (the Abort path).
func TestRTRSourceEmitsDeltas(t *testing.T) {
	base := runtime.NumGoroutine()

	cache := rtr.NewCache(9)
	cache.Update(sampleVRPs(64500))
	serverConn, clientConn := net.Pipe()
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); cache.Serve(serverConn) }()

	src := &RTRSource{
		Dial: func() (io.ReadWriter, error) { return clientConn, nil },
		Poll: 5 * time.Millisecond,
	}
	out := make(chan Msg, 4)
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- src.Run(ctx, nil, out) }()

	// Give the source time to take its baseline, then move the serial.
	time.Sleep(20 * time.Millisecond)
	cache.Update(rpki.NewVRPSet([]rpki.VRP{
		{ASN: 64500, Prefix: pfx("10.0.0.0/8"), MaxLength: 16},
		{ASN: 64999, Prefix: pfx("203.0.113.0/24"), MaxLength: 24},
	}))

	select {
	case m := <-out:
		if m.VRPs == nil || m.Serial != 2 {
			t.Fatalf("msg = %+v", m)
		}
		if len(m.Events) != 1 || m.Events[0].Kind != bgp.EvROAChange {
			t.Fatalf("events = %+v", m.Events)
		}
		// Changed prefixes: 192.0.2.0/24 withdrawn, 203.0.113.0/24 announced.
		got := map[netip.Prefix]bool{}
		for _, p := range m.Events[0].Prefixes {
			got[p] = true
		}
		if !got[pfx("192.0.2.0/24")] || !got[pfx("203.0.113.0/24")] || len(got) != 2 {
			t.Fatalf("changed prefixes = %v", m.Events[0].Prefixes)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delta emitted after cache update")
	}

	// Cancellation mid-poll: Run must return promptly (the watchdog aborts
	// any in-flight read) and leak nothing.
	cancel()
	select {
	case <-runDone:
	case <-time.After(2 * time.Second):
		t.Fatal("RTR source still running after cancel")
	}
	serverConn.Close()
	<-serveDone
	waitGoroutines(t, base)
}

// TestDaySourceSchedule: round r is day r×Interval clamped at LastDay, one
// day message each, and a paced source gives up between rounds when the
// pipeline is cancelled.
func TestDaySourceSchedule(t *testing.T) {
	sink := &collectSink{}
	src := &DaySource{Start: 2, Count: 4, Interval: 5, LastDay: 18}
	if err := NewPipeline(0, src, sink).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var days []int
	for i, m := range sink.msgs {
		if !m.Advance || m.Seq != uint64(2+i) || len(m.Events) != 0 || m.VRPs != nil {
			t.Fatalf("message %d is not round %d's day message: %+v", i, 2+i, m)
		}
		days = append(days, m.Day)
	}
	if want := []int{10, 15, 18, 18}; !reflect.DeepEqual(days, want) {
		t.Fatalf("days %v, want %v", days, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan Msg)
	done := make(chan error, 1)
	go func() { done <- (&DaySource{Count: 3, Interval: 1, LastDay: 9, Period: time.Hour}).Run(ctx, nil, out) }()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("paced source returned %v on cancel", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("paced source ignored cancellation")
	}
}
