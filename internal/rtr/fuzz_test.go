package rtr

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/netsec-lab/rovista/internal/rpki"
)

// wrappingErrorReport is a 16-byte Error Report whose encapsulated-PDU
// length, 0xFFFFFFF8, plus the 8 bytes of the two length fields is 0 in
// uint32: ReadPDU's bound check passed and it sliced at 4 GiB. Either peer
// could send it — the client reads the cache's PDUs, the cache the router's.
var wrappingErrorReport = []byte{
	Version, byte(TypeErrorReport), 0, 0, 0, 0, 0, 16,
	0xff, 0xff, 0xff, 0xf8, 0, 0, 0, 0,
}

// FuzzReadPDU: on any bytes a peer can send, ReadPDU returns a PDU or an
// error — it does not panic, and it does not read (so does not allocate for)
// more than the 64 KiB it caps a PDU at; an IPv4 Prefix PDU it accepts has
// prefix length ≤ Max Length ≤ 32 (RFC 8210 §5.6); and a PDU it accepts
// survives its own encoder: Marshal, ReadPDU again, same PDU.
func FuzzReadPDU(f *testing.F) {
	for _, p := range []*PDU{
		{Version: Version, Type: TypeSerialNotify, Session: 7, Serial: 99},
		{Version: Version, Type: TypeSerialQuery, Session: 7, Serial: 12},
		{Version: Version, Type: TypeResetQuery},
		{Version: Version, Type: TypeCacheResponse, Session: 7},
		PrefixPDU(rpki.VRP{ASN: 64500, Prefix: pfx("10.1.0.0/16"), MaxLength: 24}, true, 7),
		{Version: Version, Type: TypeIPv6Prefix, Session: 7}, // encoded as a bare header, which the decoder refuses
		{Version: Version, Type: TypeEndOfData, Session: 7, Serial: 5},
		{Version: Version, Type: TypeCacheReset, Session: 7},
		{Version: Version, Type: TypeErrorReport, Session: ErrNoDataAvailable, Text: "nothing yet"},
	} {
		f.Add(p.Marshal())
	}
	f.Add(wrappingErrorReport)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		p, err := ReadPDU(r)
		read := len(data) - r.Len()
		if read > 1<<16 {
			t.Fatalf("read %d bytes for one PDU", read)
		}
		if len(data) >= headerLen && binary.BigEndian.Uint32(data[4:]) > 1<<16 && (err == nil || read > headerLen) {
			t.Fatalf("declared length %d: err %v after reading %d bytes", binary.BigEndian.Uint32(data[4:]), err, read)
		}
		if err != nil {
			return
		}
		if p.Type == TypeIPv4Prefix && (int(p.MaxLength) < p.Prefix.Bits() || p.MaxLength > 32) {
			t.Fatalf("accepted %v with max length %d", p.Prefix, p.MaxLength)
		}
		// The encoder writes a prefix without its host bits; the decoder
		// keeps what was sent (VRPOf masks it for every consumer).
		p.Prefix = p.Prefix.Masked()
		again, err := ReadPDU(bytes.NewReader(p.Marshal()))
		if err != nil || *again != *p {
			t.Fatalf("%+v re-encoded and re-read as %+v, %v", *p, again, err)
		}
	})
}
