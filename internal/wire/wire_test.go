package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

const testMagic = "BDCT"

// pair returns both ends of an in-process connection, closed at cleanup.
func pair(t *testing.T) (a, b net.Conn) {
	t.Helper()
	a, b = net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// handshake runs Hello on one end and Accept on the other and returns both
// results.
func handshake(t *testing.T, dialVersion uint16, dialToken string, acceptVersion uint16, want string, meter func(int)) (uint16, error, error) {
	t.Helper()
	dial, acc := pair(t)
	accErr := make(chan error, 1)
	go func() {
		err := Accept(acc, testMagic, acceptVersion, want, 7)
		if err != nil {
			acc.Close() // what the host does once the session returns
		}
		accErr <- err
	}()
	announced, err := Hello(dial, testMagic, dialVersion, dialToken, meter)
	return announced, err, <-accErr
}

func TestHandshake(t *testing.T) {
	var metered []int
	announced, err, aerr := handshake(t, 3, "sesame", 3, "sesame", func(n int) { metered = append(metered, n) })
	if err != nil || aerr != nil {
		t.Fatalf("matching handshake failed: dial %v, accept %v", err, aerr)
	}
	if announced != 7 {
		t.Fatalf("announced %d, want 7", announced)
	}
	// Hello = header + magic + version + token length + token; reply =
	// header + version + announced value.
	if want := []int{HeaderSize + len(testMagic) + 2 + 2 + len("sesame"), HeaderSize + 4}; len(metered) != 2 ||
		metered[0] != want[0] || metered[1] != want[1] {
		t.Fatalf("metered %v, want %v", metered, want)
	}

	for _, tc := range []struct{ dial, want string }{{"wrong", "sesame"}, {"", "sesame"}, {"extra", ""}} {
		_, err, aerr := handshake(t, 3, tc.dial, 3, tc.want, nil)
		if err == nil || aerr == nil || !strings.Contains(err.Error(), "hello reply") {
			t.Fatalf("token %q against %q: dial %v, accept %v; want a drop without a reply", tc.dial, tc.want, err, aerr)
		}
	}

	_, err, aerr = handshake(t, 4, "", 3, "", nil)
	if aerr == nil {
		t.Fatal("accepting side kept a version-mismatched session")
	}
	if err == nil || !strings.Contains(err.Error(), "version 3") || !strings.Contains(err.Error(), "speaks 4") {
		t.Fatalf("dialing side returned %v, want an error naming both versions", err)
	}
}

// TestShortHello pins the accept rule for a hello that ends after the
// version: its token is empty, so it passes only a host that wants none.
func TestShortHello(t *testing.T) {
	for _, want := range []string{"", "sesame"} {
		dial, acc := pair(t)
		accErr := make(chan error, 1)
		go func() { accErr <- Accept(acc, testMagic, 3, want, 7) }()
		hello := binary.LittleEndian.AppendUint16(append(Buf(), testMagic...), 3)
		if err := Write(dial, 0, FrameHello, hello); err != nil {
			t.Fatal(err)
		}
		if want == "" {
			if _, typ, payload, err := Read(dial, MaxPayload); err != nil || typ != FrameHello || len(payload) != 4 {
				t.Fatalf("short hello to a token-less host: reply type %d, %d bytes, err %v", typ, len(payload), err)
			}
			if err := <-accErr; err != nil {
				t.Fatalf("short hello rejected by a token-less host: %v", err)
			}
		} else if err := <-accErr; err == nil {
			t.Fatal("short hello accepted by a host that wants a token")
		}
	}
}

// TestOversizedHelloDropped pins the pre-auth allocation bound: a header
// claiming a 64 MiB hello payload, sent to a host that wants a token, is
// dropped before anything is allocated for its payload.
func TestOversizedHelloDropped(t *testing.T) {
	h := NewHost(func(conn net.Conn) { Accept(conn, testMagic, 3, "sesame", 7) })
	defer h.Close(0)
	dial, acc := pair(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeConn(acc)
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:], 64<<20)
	hdr[12] = FrameHello
	if _, err := dial.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	dial.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := dial.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("oversized hello not dropped (read returned %v, want EOF)", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("oversized hello allocated %d bytes before the drop", grew)
	}
}

// TestHostClose covers the session host's teardown: Close closes live
// connections, a bounded Close abandons a wedged session and counts it,
// and Serve refuses to start after Close.
func TestHostClose(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	h := NewHost(func(conn net.Conn) {
		started <- struct{}{}
		Read(conn, MaxPayload) // returns once Close closes the connection
		<-release              // wedged: outlives its connection
	})
	_, a := pair(t)
	_, b := pair(t)
	h.ServeConn(a)
	h.ServeConn(b)
	<-started
	<-started
	if n := h.Close(50 * time.Millisecond); n != 2 {
		t.Fatalf("bounded close abandoned %d sessions, want 2", n)
	}
	close(release)
	if n := h.Close(0); n != 0 {
		t.Fatalf("unbounded close abandoned %d sessions", n)
	}
	if !h.Closed() {
		t.Fatal("host not marked closed")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Serve(l); !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve after Close returned %v, want ErrClosed", err)
	}
	_, c := pair(t)
	h.ServeConn(c) // closed host: the connection is closed, no session runs
	if _, err := c.Write([]byte{0}); err == nil {
		t.Fatal("connection handed to a closed host left open")
	}
}

// TestServeReturnsNilAfterClose checks the listener loop ends cleanly when
// the host closes under it.
func TestServeReturnsNilAfterClose(t *testing.T) {
	h := NewHost(func(net.Conn) {})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- h.Serve(l) }()
	for !func() bool { h.mu.Lock(); defer h.mu.Unlock(); return len(h.listeners) == 1 }() {
		time.Sleep(time.Millisecond)
	}
	h.Close(0)
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after Close, want nil", err)
	}
}

// FuzzFrame runs the frame reader and the hello parser over arbitrary
// bytes. The reader runs with the accepting side's hello cap, so no input
// can make it allocate more than a hello; every frame it returns must lie
// within the input, and every parsed hello must re-encode to a prefix of
// its payload.
func FuzzFrame(f *testing.F) {
	limit := helloCap(testMagic)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		off := 0
		for {
			id, typ, payload, err := Read(r, limit)
			if err != nil {
				return
			}
			if uint32(len(payload)) > limit || off+HeaderSize+len(payload) > len(data) {
				t.Fatalf("frame of %d payload bytes read from %d remaining input bytes", len(payload), len(data)-off)
			}
			hdr := data[off:]
			if binary.LittleEndian.Uint32(hdr) != uint32(len(payload)) ||
				binary.LittleEndian.Uint64(hdr[4:]) != id || hdr[12] != typ ||
				!bytes.Equal(hdr[HeaderSize:HeaderSize+len(payload)], payload) {
				t.Fatal("frame fields disagree with the input bytes")
			}
			off += HeaderSize + len(payload)
			for _, magic := range []string{testMagic, "BDCW", "BDCQ"} {
				v, token, ok := parseHello(payload, magic)
				if !ok {
					continue
				}
				enc := binary.LittleEndian.AppendUint16([]byte(magic), v)
				if len(token) > 0 {
					enc = binary.LittleEndian.AppendUint16(enc, uint16(len(token)))
					enc = append(enc, token...)
				}
				if !bytes.HasPrefix(payload, enc) {
					t.Fatalf("hello (version %d, %d-byte token) does not re-encode to a prefix of its payload", v, len(token))
				}
			}
		}
	})
}
