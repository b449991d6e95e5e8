package rtr

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"github.com/netsec-lab/rovista/internal/rpki"
)

// Client is the router side of the protocol: it synchronizes a local VRP
// set from a cache and hands it to the BGP import policies.
type Client struct {
	rw      io.ReadWriter
	session uint16
	serial  uint32
	synced  bool
	aborted atomic.Bool
	vrps    map[string]rpki.VRP
}

// NewClient wraps a stream to a cache.
func NewClient(rw io.ReadWriter) *Client {
	return &Client{rw: rw, vrps: make(map[string]rpki.VRP)}
}

// Serial returns the serial of the last completed sync.
func (c *Client) Serial() uint32 { return c.serial }

// ErrAborted is returned by Reset/Refresh when Abort interrupted a sync.
var ErrAborted = errors.New("rtr: client aborted")

// Abort unblocks a Reset or Refresh that is parked in a blocking read.
// Client reads have no deadline — over a net.Conn or net.Pipe the read loop
// would otherwise leak its goroutine when the caller's context is cancelled
// mid-stream — so Abort closes the underlying transport (when it is an
// io.Closer) to force the pending ReadPDU to return. The client is
// unusable afterwards; callers reconnect with a fresh Client.
func (c *Client) Abort() error {
	c.aborted.Store(true)
	if cl, ok := c.rw.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// Reset performs a full resynchronization (Reset Query → Cache Response →
// prefix PDUs → End of Data).
func (c *Client) Reset() error {
	if err := writePDU(c.rw, &PDU{Version: Version, Type: TypeResetQuery}); err != nil {
		return err
	}
	c.vrps = make(map[string]rpki.VRP)
	return c.consumeResponse(true)
}

// Refresh performs an incremental sync from the client's current serial.
// When the cache answers Cache Reset (history trimmed), it falls back to a
// full Reset automatically.
func (c *Client) Refresh() error {
	if !c.synced {
		return c.Reset()
	}
	if err := writePDU(c.rw, &PDU{Version: Version, Type: TypeSerialQuery, Session: c.session, Serial: c.serial}); err != nil {
		return err
	}
	return c.consumeResponse(false)
}

// consumeResponse processes PDUs until End of Data (or Cache Reset).
func (c *Client) consumeResponse(isReset bool) error {
	sawCacheResponse := false
	for {
		pdu, err := ReadPDU(c.rw)
		if err != nil {
			if c.aborted.Load() {
				return ErrAborted
			}
			return err
		}
		switch pdu.Type {
		case TypeSerialNotify:
			// Caches may push unsolicited notifies at any time, including
			// interleaved with an in-flight response. The caller decides
			// when to Refresh, so skip it and continue.
		case TypeCacheResponse:
			sawCacheResponse = true
			c.session = pdu.Session
		case TypeIPv4Prefix:
			if !sawCacheResponse {
				return fmt.Errorf("rtr: prefix PDU before Cache Response")
			}
			v := pdu.VRPOf()
			k := vrpKey(v)
			if pdu.Flags&FlagAnnounce != 0 {
				c.vrps[k] = v
			} else {
				delete(c.vrps, k)
			}
		case TypeEndOfData:
			if !sawCacheResponse {
				return fmt.Errorf("rtr: End of Data before Cache Response")
			}
			c.serial = pdu.Serial
			c.synced = true
			return nil
		case TypeCacheReset:
			if isReset {
				return fmt.Errorf("rtr: cache reset during reset")
			}
			return c.Reset()
		case TypeErrorReport:
			return fmt.Errorf("rtr: cache error %d: %s", pdu.Session, pdu.Text)
		default:
			return fmt.Errorf("rtr: unexpected PDU %v", pdu.Type)
		}
	}
}

func vrpKey(v rpki.VRP) string {
	return fmt.Sprintf("%v|%d|%d", v.Prefix, v.MaxLength, v.ASN)
}

// VRPSet materializes the synchronized VRPs for the BGP import pipeline.
func (c *Client) VRPSet() *rpki.VRPSet {
	out := make([]rpki.VRP, 0, len(c.vrps))
	for _, v := range c.vrps {
		out = append(out, v)
	}
	return rpki.NewVRPSet(out)
}

// Len reports the number of synchronized VRPs.
func (c *Client) Len() int { return len(c.vrps) }
