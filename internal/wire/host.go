package wire

import (
	"net"
	"sync"
	"time"
)

// Host is the accepting half both protocol servers share: it accepts
// connections from any number of listeners, runs one session per
// connection on its own goroutine, tracks the live connections, and on
// Close shuts listeners, closes connections and drains the sessions.
type Host struct {
	session func(net.Conn)

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool

	wg sync.WaitGroup
}

// NewHost returns a host running session once per connection. The host
// closes the connection when session returns.
func NewHost(session func(net.Conn)) *Host {
	return &Host{session: session, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on l until the listener fails or the host
// closes, serving each as an independent session. It returns nil after
// Close, and ErrClosed (closing l) when called after Close.
func (h *Host) Serve(l net.Listener) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		l.Close()
		return ErrClosed
	}
	h.listeners = append(h.listeners, l)
	h.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if h.Closed() {
				return nil
			}
			return err
		}
		h.ServeConn(conn)
	}
}

// ServeConn starts one session over an established connection (a net.Pipe
// end, an accepted socket) and returns immediately.
func (h *Host) ServeConn(conn net.Conn) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		conn.Close()
		return
	}
	h.conns[conn] = struct{}{}
	h.wg.Add(1)
	h.mu.Unlock()
	go func() {
		defer h.wg.Done()
		h.session(conn)
		conn.Close()
		h.mu.Lock()
		delete(h.conns, conn)
		h.mu.Unlock()
	}()
}

// Closed reports whether Close has been called.
func (h *Host) Closed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// Close stops accepting, closes every live connection (sessions see their
// reads fail and unwind), and waits for the sessions to end. With d > 0
// the wait is bounded: sessions still running after d are abandoned and
// their count returned. d <= 0 waits for the drain forever. Close may be
// called again; later calls wait for the drain the same way.
func (h *Host) Close(d time.Duration) (abandoned int) {
	h.mu.Lock()
	h.closed = true
	listeners := h.listeners
	h.listeners = nil
	conns := make([]net.Conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	if d <= 0 {
		h.wg.Wait()
		return 0
	}
	drained := make(chan struct{})
	go func() {
		h.wg.Wait()
		close(drained)
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-drained:
	case <-t.C:
		h.mu.Lock()
		n := len(h.conns)
		h.mu.Unlock()
		if n > 0 {
			return n
		}
		<-drained // the last session ended between the timeout and the count
	}
	return 0
}
