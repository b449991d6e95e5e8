package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/stream"
)

// handleStream is GET /v1/stream: a Server-Sent Events feed of score
// deltas, pushed after every incremental measurement round, so clients
// watch scores move without polling.
//
// Query parameters:
//
//	asn=N        only deltas for this AS
//	min_delta=X  suppress deltas with |new-old| < X (appear/vanish
//	             transitions always pass)
//
// Frames: an "event: scores" frame per round that moved a score (data: the
// stream.Update JSON; id: its Round — under rovistad the 1-based index of
// the archived round, so a client can tell what it missed; nothing is
// replayed), comment keepalives while idle, and a final "event: evicted"
// frame if the server dropped the subscription because the client fell
// behind the fan-out (slow-consumer policy; reconnect to resubscribe).
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
	var f stream.SubFilter
	q := r.URL.Query()
	if v := q.Get("asn"); v != "" {
		n, err := strconv.ParseUint(v, 10, 32)
		if err != nil || n == 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad asn %q", v))
			return
		}
		f.ASN = inet.ASN(n)
	}
	if v := q.Get("min_delta"); v != "" {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil || x < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad min_delta %q", v))
			return
		}
		f.MinDelta = x
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
		case u, ok := <-sub.C:
			if !ok {
				// The hub evicted us: tell the client why before closing so
				// it can distinguish "server shed me" from a network drop.
				s.Metrics.StreamEvicted.Add(1)
				fmt.Fprint(w, "event: evicted\ndata: {\"reason\":\"subscriber too slow\"}\n\n")
				fl.Flush()
				return
			}
			b, err := json.Marshal(u)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: scores\ndata: %s\n\n", u.Round, b); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
