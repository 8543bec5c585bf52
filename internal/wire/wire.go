// Package wire is the transport layer the system's two framed protocols
// share: the worker protocol ("BDCW", internal/shard) and the client
// protocol ("BDCQ", internal/serve). It owns frame I/O, both sides of the
// hello handshake, and the session host that accepts, tracks and drains
// connections. Each protocol keeps its own magic, version, frame types and
// payload codecs; docs/WIRE.md ("Frame layer and handshake") specifies the
// bytes this package reads and writes.
package wire

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// HeaderSize is the fixed frame header: u32 payload length, u64 id, u8 type.
const HeaderSize = 4 + 8 + 1

// MaxPayload bounds what a peer can make us allocate from a header after
// the handshake: well above any real message (a group's batches, a query
// result), well below an OOM-by-garbage. A frame claiming more is a
// protocol violation and drops the session; senders check it first, so an
// oversized message fails as a work error instead of a session drop.
const MaxPayload = 1 << 30

// HandshakeTimeout bounds a dial's connect and the hello exchange on both
// sides, so a black-holed address or a non-protocol peer fails instead of
// hanging.
const HandshakeTimeout = 10 * time.Second

// WriteTimeout bounds every frame write. A peer that is alive at the TCP
// level but not consuming (a stopped process, a stalled client) would
// otherwise park the writer forever once the transport window fills; with
// the deadline a stall becomes a write error the caller can act on.
// Generous — a 1 GiB frame crosses a 1 Gbps link in ~10 s.
const WriteTimeout = 2 * time.Minute

// FrameHello is the hello frame type, the first frame in both directions
// of every session of either protocol.
const FrameHello = byte(1)

// ErrClosed is returned by Host.Serve once the host has closed.
var ErrClosed = errors.New("wire: host closed")

// Buf returns a payload buffer with the frame header reserved up front, so
// encoders append payload bytes directly behind it and Write ships the
// single buffer with no second copy.
func Buf() []byte { return make([]byte, HeaderSize) }

// Write patches the reserved header of frame (a Buf-based buffer whose
// payload starts at HeaderSize) and sends it as one message on conn under
// WriteTimeout. Callers hold their direction's write mutex (one frame at a
// time per direction).
func Write(conn net.Conn, id uint64, typ byte, frame []byte) error {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-HeaderSize))
	binary.LittleEndian.PutUint64(frame[4:], id)
	frame[12] = typ
	conn.SetWriteDeadline(time.Now().Add(WriteTimeout))
	_, err := conn.Write(frame)
	return err
}

// Read reads one frame from r. A header claiming more than limit payload
// bytes is an error before anything is allocated for the payload.
func Read(r io.Reader, limit uint32) (id uint64, typ byte, payload []byte, err error) {
	var hdr [HeaderSize]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > limit {
		return 0, 0, nil, fmt.Errorf("wire: frame claims %d-byte payload (cap %d)", n, limit)
	}
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return binary.LittleEndian.Uint64(hdr[4:]), hdr[12], payload, nil
}

// helloCap is the largest hello payload a magic can carry: magic, u16
// version, u16 token length, and a token of at most 65535 bytes. The
// accepting side reads the (unauthenticated) hello with this cap instead
// of MaxPayload, so a peer without the token cannot make it allocate more.
func helloCap(magic string) uint32 { return uint32(len(magic) + 2 + 2 + 1<<16 - 1) }

// Hello runs the dialing side of the handshake on conn under
// HandshakeTimeout: it sends magic + u16 version + u16 token length +
// token, reads the reply (u16 version + u16 announced value), and checks
// the version. It returns the announced value. meter, when non-nil, is
// charged with each frame's full size. The caller owns conn either way.
func Hello(conn net.Conn, magic string, version uint16, token string, meter func(bytes int)) (uint16, error) {
	if len(token) > 1<<16-1 {
		return 0, errors.New("auth token longer than the hello's u16 length field")
	}
	conn.SetDeadline(time.Now().Add(HandshakeTimeout))
	hello := append(Buf(), magic...)
	hello = binary.LittleEndian.AppendUint16(hello, version)
	hello = binary.LittleEndian.AppendUint16(hello, uint16(len(token)))
	hello = append(hello, token...)
	if meter != nil {
		meter(len(hello))
	}
	if err := Write(conn, 0, FrameHello, hello); err != nil {
		return 0, fmt.Errorf("hello: %w", err)
	}
	_, typ, payload, err := Read(conn, MaxPayload)
	if err != nil {
		return 0, fmt.Errorf("hello reply: %w", err)
	}
	if meter != nil {
		meter(HeaderSize + len(payload))
	}
	conn.SetDeadline(time.Time{})
	if typ != FrameHello || len(payload) < 4 {
		return 0, fmt.Errorf("malformed hello reply (type %d, %d bytes)", typ, len(payload))
	}
	if v := binary.LittleEndian.Uint16(payload); v != version {
		return 0, fmt.Errorf("peer speaks %s version %d, this build speaks %d", magic, v, version)
	}
	return binary.LittleEndian.Uint16(payload[2:]), nil
}

// parseHello splits a hello payload into its version and token. The token
// field is optional: a hello that ends after the version, or whose length
// field overruns the payload, carries the empty token. ok is false when the
// payload is too short for magic + version or names another magic.
func parseHello(payload []byte, magic string) (version uint16, token []byte, ok bool) {
	if len(payload) < len(magic)+2 || string(payload[:len(magic)]) != magic {
		return 0, nil, false
	}
	version = binary.LittleEndian.Uint16(payload[len(magic):])
	if rest := payload[len(magic)+2:]; len(rest) >= 2 {
		if n := int(binary.LittleEndian.Uint16(rest)); len(rest) >= 2+n {
			token = rest[2 : 2+n]
		}
	}
	return version, token, true
}

// Accept runs the accepting side of the handshake on conn: it reads the
// hello under HandshakeTimeout (with a hello-sized payload cap), checks the
// magic, compares the token against want in constant time, and only then
// replies with version + announce; a peer with the wrong secret learns
// nothing, not even the version. A version mismatch is reported after the
// reply, so the peer can name both versions. Any error means the session
// must be dropped; none of them is owed a further reply.
func Accept(conn net.Conn, magic string, version uint16, want string, announce uint16) error {
	conn.SetReadDeadline(time.Now().Add(HandshakeTimeout))
	_, typ, payload, err := Read(conn, helloCap(magic))
	if err != nil {
		return err
	}
	v, token, ok := parseHello(payload, magic)
	if typ != FrameHello || !ok {
		return errors.New("wire: not a protocol hello")
	}
	conn.SetReadDeadline(time.Time{})
	if subtle.ConstantTimeCompare(token, []byte(want)) != 1 {
		return errors.New("wire: auth token mismatch")
	}
	reply := binary.LittleEndian.AppendUint16(Buf(), version)
	reply = binary.LittleEndian.AppendUint16(reply, announce)
	if err := Write(conn, 0, FrameHello, reply); err != nil {
		return err
	}
	if v != version {
		return fmt.Errorf("wire: peer speaks %s version %d, this build speaks %d", magic, v, version)
	}
	return nil
}
