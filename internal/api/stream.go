package api

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/stream"
)

// parseStreamFilter reads /v1/stream's query parameters:
//
//	asn=N        only deltas for this AS
//	min_delta=X  suppress deltas with |new-old| < X (appear/vanish
//	             transitions always pass); finite and not negative
func parseStreamFilter(q url.Values) (stream.SubFilter, error) {
	var f stream.SubFilter
	if v := q.Get("asn"); v != "" {
		n, err := strconv.ParseUint(v, 10, 32)
		if err != nil || n == 0 {
			return f, fmt.Errorf("bad asn %q", v)
		}
		f.ASN = inet.ASN(n)
	}
	if v := q.Get("min_delta"); v != "" {
		x, err := strconv.ParseFloat(v, 64)
		// ParseFloat accepts "NaN" and "Inf"; neither is a threshold.
		if err != nil || math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return f, fmt.Errorf("bad min_delta %q", v)
		}
		f.MinDelta = x
	}
	return f, nil
}

// handleStream is GET /v1/stream: a Server-Sent Events feed of score
// deltas, pushed after every incremental measurement round, so clients
// watch scores move without polling. parseStreamFilter documents the query
// parameters; subscriptions with the same filter share one view of the hub.
//
// What the client reads: an "event: scores" frame per round that moved a
// score its filter lets through (data: the stream.Update JSON; id: its
// Round — under rovistad the 1-based index of the archived round, so a
// client can tell what it missed; nothing is replayed). The frame is
// stream.Frame.SSE: encoded once for the whole view, written here with one
// Write and flushed. A comment keepalive follows streamKeepalive of silence.
// If the server drops the subscription because the client fell behind the
// fan-out (slow-consumer policy; reconnect to resubscribe) the stream ends
// with an "event: evicted" frame; if the hub was closed it just ends.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.hub == nil {
		writeError(w, http.StatusServiceUnavailable, "score stream not attached (daemon not measuring live)")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	f, err := parseStreamFilter(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	sub := s.hub.Subscribe(f, s.streamBuf)
	defer sub.Close()
	s.Metrics.StreamClients.Add(1)
	defer s.Metrics.StreamClients.Add(-1)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": rovista score stream\n\n")
	fl.Flush()

	keepalive := time.NewTicker(s.streamKeepalive)
	defer keepalive.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case frame, ok := <-sub.C:
			if !ok {
				// Evicted: tell the client why before closing, so it can
				// distinguish "server shed me" from a network drop. A closed
				// hub disconnects without comment.
				if sub.Evicted() {
					s.Metrics.StreamEvicted.Add(1)
					fmt.Fprint(w, "event: evicted\ndata: {\"reason\":\"subscriber too slow\"}\n\n")
					fl.Flush()
				}
				return
			}
			b, err := frame.SSE()
			if err != nil {
				return
			}
			if _, err := w.Write(b); err != nil {
				return
			}
			fl.Flush()
			keepalive.Reset(s.streamKeepalive)
		}
	}
}
