package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/stream"
)

// sseFrame is one "event: scores" frame as a client saw it: its id, the
// instant its terminating blank line was read, and its undecoded payload
// (decoding waits until the run is over, so the reader stays cheap).
type sseFrame struct {
	id   uint32
	at   time.Time
	data []byte
}

// sseClient reads GET /v1/stream over a real socket.
type sseClient struct {
	cancel context.CancelFunc
	done   chan struct{}
	got    atomic.Int64 // frames read so far

	// Owned by the reader goroutine until done closes.
	frames  []sseFrame
	bytes   int64
	evicted bool
	err     error
}

// dialSSE opens the stream and returns once the server has registered the
// subscription (it writes its greeting comment after subscribing).
func dialSSE(baseURL string) (*sseClient, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /v1/stream: %s", resp.Status)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	if _, err := br.ReadSlice('\n'); err != nil { // ": rovista score stream"
		resp.Body.Close()
		cancel()
		return nil, err
	}
	c := &sseClient{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		defer resp.Body.Close()
		c.read(ctx, br)
	}()
	return c, nil
}

func (c *sseClient) read(ctx context.Context, br *bufio.Reader) {
	var cur sseFrame
	var have bool
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			if ctx.Err() == nil {
				c.err = err
			}
			return
		}
		c.bytes += int64(len(line))
		line = bytes.TrimRight(line, "\n")
		switch {
		case len(line) == 0:
			if have {
				cur.at = time.Now()
				c.frames = append(c.frames, cur)
				c.got.Add(1)
				cur, have = sseFrame{}, false
			}
		case bytes.HasPrefix(line, []byte("id: ")):
			n, err := strconv.ParseUint(string(line[4:]), 10, 32)
			if err != nil {
				c.err = fmt.Errorf("bad frame id %q", line)
				return
			}
			cur.id, have = uint32(n), true
		case bytes.HasPrefix(line, []byte("data: ")):
			cur.data = line[6:]
		case bytes.Equal(line, []byte("event: evicted")):
			c.evicted = true
		}
	}
}

// waitFrames blocks until the client has read n frames, it stopped, or the
// timeout passed.
func (c *sseClient) waitFrames(n int64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for c.got.Load() < n && time.Now().Before(deadline) {
		select {
		case <-c.done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// close stops the reader and waits for it to end.
func (c *sseClient) close() {
	c.cancel()
	<-c.done
}

// checkIDs counts frames whose id does not strictly increase.
func checkIDs(frames []sseFrame) (outOfOrder int) {
	for i := 1; i < len(frames); i++ {
		if frames[i].id <= frames[i-1].id {
			outOfOrder++
		}
	}
	return outOfOrder
}

// replayFrames applies every received delta, in order, to a copy of the
// baseline scores: what a client that only ever listened would believe.
func replayFrames(baseline map[inet.ASN]float64, frames []sseFrame) (map[inet.ASN]float64, error) {
	cur := maps.Clone(baseline)
	for _, f := range frames {
		var u stream.Update
		if err := json.Unmarshal(f.data, &u); err != nil {
			return nil, fmt.Errorf("frame %d: %w", f.id, err)
		}
		if u.Round != f.id {
			return nil, fmt.Errorf("frame id %d carries round %d", f.id, u.Round)
		}
		applyDeltas(cur, u.Deltas)
	}
	return cur, nil
}

func applyDeltas(cur map[inet.ASN]float64, deltas []stream.ScoreDelta) {
	for _, d := range deltas {
		if d.Vanished {
			delete(cur, d.ASN)
		} else {
			cur[d.ASN] = d.New
		}
	}
}
