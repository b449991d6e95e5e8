package rtr

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/netsec-lab/rovista/internal/rpki"
)

// Cache is the relying-party side of the protocol: it holds versioned VRP
// snapshots and serves Reset/Serial queries over any stream. One Cache can
// serve many router sessions concurrently.
type Cache struct {
	mu      sync.Mutex
	session uint16
	serial  uint32
	// snapshots maps serial -> full VRP list at that serial, so Serial
	// Queries can be answered with deltas.
	snapshots map[uint32][]rpki.VRP
	// retain bounds how many historical serials are kept for deltas.
	retain int
}

// NewCache creates a cache with the given session ID and an empty serial-0
// snapshot.
func NewCache(session uint16) *Cache {
	return &Cache{
		session:   session,
		snapshots: map[uint32][]rpki.VRP{0: nil},
		retain:    16,
	}
}

// Serial returns the current serial number.
func (c *Cache) Serial() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serial
}

// Update publishes a new VRP set, bumping the serial. It returns the new
// serial number.
func (c *Cache) Update(vrps *rpki.VRPSet) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.serial++
	c.snapshots[c.serial] = vrps.All()
	// Trim old snapshots beyond the retention window.
	for s := range c.snapshots {
		if c.serial-s > uint32(c.retain) {
			delete(c.snapshots, s)
		}
	}
	return c.serial
}

// diff computes announce/withdraw lists between two snapshots.
func diff(old, new []rpki.VRP) (announce, withdraw []rpki.VRP) {
	key := func(v rpki.VRP) string {
		return fmt.Sprintf("%v|%d|%d", v.Prefix, v.MaxLength, v.ASN)
	}
	oldSet := make(map[string]rpki.VRP, len(old))
	for _, v := range old {
		oldSet[key(v)] = v
	}
	newSet := make(map[string]rpki.VRP, len(new))
	for _, v := range new {
		newSet[key(v)] = v
		if _, ok := oldSet[key(v)]; !ok {
			announce = append(announce, v)
		}
	}
	for _, v := range old {
		if _, ok := newSet[key(v)]; !ok {
			withdraw = append(withdraw, v)
		}
	}
	sortVRPs(announce)
	sortVRPs(withdraw)
	return
}

func sortVRPs(vs []rpki.VRP) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Prefix != vs[j].Prefix {
			return vs[i].Prefix.String() < vs[j].Prefix.String()
		}
		if vs[i].ASN != vs[j].ASN {
			return vs[i].ASN < vs[j].ASN
		}
		return vs[i].MaxLength < vs[j].MaxLength
	})
}

// Serve handles one router session on the stream until EOF or error. It
// answers Reset Queries with the full current snapshot and Serial Queries
// with deltas (or Cache Reset when the requested serial has been trimmed).
func (c *Cache) Serve(rw io.ReadWriter) error {
	for {
		pdu, err := ReadPDU(rw)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if pdu.Version != Version {
			c.sendError(rw, ErrUnsupportedVersion, "unsupported version")
			return fmt.Errorf("rtr: client version %d", pdu.Version)
		}
		switch pdu.Type {
		case TypeResetQuery:
			if err := c.sendFull(rw); err != nil {
				return err
			}
		case TypeSerialQuery:
			if err := c.sendDelta(rw, pdu.Serial); err != nil {
				return err
			}
		default:
			c.sendError(rw, ErrUnsupportedPDUType, fmt.Sprintf("unexpected %v", pdu.Type))
			return fmt.Errorf("rtr: unexpected client PDU %v", pdu.Type)
		}
	}
}

func (c *Cache) sendFull(w io.Writer) error {
	c.mu.Lock()
	serial := c.serial
	snap := append([]rpki.VRP(nil), c.snapshots[serial]...)
	session := c.session
	c.mu.Unlock()

	if err := writePDU(w, &PDU{Version: Version, Type: TypeCacheResponse, Session: session}); err != nil {
		return err
	}
	for _, v := range snap {
		if err := writePDU(w, PrefixPDU(v, true, session)); err != nil {
			return err
		}
	}
	return writePDU(w, &PDU{Version: Version, Type: TypeEndOfData, Session: session, Serial: serial})
}

func (c *Cache) sendDelta(w io.Writer, from uint32) error {
	c.mu.Lock()
	serial := c.serial
	session := c.session
	oldSnap, ok := c.snapshots[from]
	newSnap := c.snapshots[serial]
	c.mu.Unlock()

	if !ok {
		// The requested serial fell out of the retention window: the
		// client must reset.
		return writePDU(w, &PDU{Version: Version, Type: TypeCacheReset, Session: session})
	}
	announce, withdraw := diff(oldSnap, newSnap)
	if err := writePDU(w, &PDU{Version: Version, Type: TypeCacheResponse, Session: session}); err != nil {
		return err
	}
	for _, v := range announce {
		if err := writePDU(w, PrefixPDU(v, true, session)); err != nil {
			return err
		}
	}
	for _, v := range withdraw {
		if err := writePDU(w, PrefixPDU(v, false, session)); err != nil {
			return err
		}
	}
	return writePDU(w, &PDU{Version: Version, Type: TypeEndOfData, Session: session, Serial: serial})
}

func (c *Cache) sendError(w io.Writer, code uint16, text string) {
	writePDU(w, &PDU{Version: Version, Type: TypeErrorReport, Session: code, Text: text})
}

func writePDU(w io.Writer, p *PDU) error {
	_, err := w.Write(p.Marshal())
	return err
}
