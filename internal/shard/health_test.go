package shard

import (
	"errors"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/vector"
)

// TestProbeBackoffBoundedAndJittered checks the prober's wait schedule:
// every draw for attempt n lands in [d/2, d] with d = min(Max, Base·2ⁿ),
// the cap holds at absurd attempt counts (no overflow past the shift
// width), and repeated draws at one attempt differ (the jitter that keeps
// many queries' probers from re-dialing a restarted worker in lockstep).
func TestProbeBackoffBoundedAndJittered(t *testing.T) {
	cfg := ProbeConfig{Base: 100 * time.Millisecond, Max: 5 * time.Second}.withDefaults()
	rng := rand.New(rand.NewSource(42))
	for attempt := 0; attempt < 16; attempt++ {
		d := cfg.Max
		if e := cfg.Base * (1 << uint(attempt)); e < d {
			d = e
		}
		for k := 0; k < 32; k++ {
			if got := cfg.backoff(attempt, rng); got < d/2 || got > d {
				t.Fatalf("attempt %d draw %v outside [%v, %v]", attempt, got, d/2, d)
			}
		}
	}
	for _, attempt := range []int{40, 63, 1 << 20} {
		if got := cfg.backoff(attempt, rng); got < cfg.Max/2 || got > cfg.Max {
			t.Fatalf("attempt %d draw %v escaped the cap window [%v, %v]", attempt, got, cfg.Max/2, cfg.Max)
		}
	}
	seen := map[time.Duration]bool{}
	for k := 0; k < 64; k++ {
		seen[cfg.backoff(6, rng)] = true
	}
	if len(seen) < 2 {
		t.Fatal("64 draws at one attempt were all identical — no jitter")
	}
}

// TestPingPong checks the liveness round-trip on a live session, and that a
// ping against a dead worker fails with the reroute marker (promptly on a
// broken transport, at the timeout on a silent one).
func TestPingPong(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, addr := startWorker(t, 1)
	b, err := Dial(addr, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cl := b.(*client)
	for i := 0; i < 3; i++ {
		if err := cl.Ping(2 * time.Second); err != nil {
			t.Fatalf("ping %d over a live session: %v", i, err)
		}
	}
	srv.Close()
	if err := cl.Ping(200 * time.Millisecond); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("ping over a dead session returned %v, want ErrBackendDown", err)
	}
	cl.Close()
	waitGoroutines(t, base)
}

// TestProberStopsOnClose checks context cancellation through the reconnect
// loop: a prober parked on an hour-long backoff (or mid-dial) returns
// promptly when the set closes, instead of sleeping the window out.
func TestProberStopsOnClose(t *testing.T) {
	base := runtime.NumGoroutine()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()
	set, err := DialSetConfig([]string{dead}, PaperNet(), SetConfig{
		Probe: ProbeConfig{Base: time.Hour, Max: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	if h := set.Health(); h[0].State != "probing" {
		t.Fatalf("dead slot state %q, want probing", h[0].State)
	}
	start := time.Now()
	for _, b := range set.Backends() {
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("closing the set waited %v on a prober mid-backoff, want immediate cancellation", d)
	}
	waitGoroutines(t, base)
}

// TestReadmissionAfterRestart is the recovery round-trip at the shard
// level: kill a worker (units fail over and the slot goes down/probing),
// restart a fresh worker on the same address, and assert the prober
// re-admits it — fragments re-shipped, epoch advanced so the exclusion
// chain resets — and that it serves units again.
func TestReadmissionAfterRestart(t *testing.T) {
	base := runtime.NumGoroutine()
	srv1, addr1 := startWorker(t, 1)
	srv2, addr2 := startWorker(t, 1)
	set, err := DialSetConfig([]string{addr1, addr2}, PaperNet(), SetConfig{
		Probe: ProbeConfig{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	frag := testFragment(t)
	probe, build := testStreams(1, 2)
	unit := func() *engine.GroupUnit {
		return &engine.GroupUnit{GID: 0,
			Probe: []*vector.Batch{probe.batches[0], probe.batches[1]},
			Build: []*vector.Batch{build.batches[0]},
		}
	}
	run := func(pref int) error {
		done := make(chan error, 1)
		set.Backends()[pref].RunGroup(unit(), frag, func(*vector.Batch) {}, func(err error) { done <- err })
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("unit never completed")
			return nil
		}
	}
	// Seed the session's fragment registry, then kill worker 2: the next
	// unit preferring it fails over to worker 1 and marks the slot down.
	if err := run(0); err != nil {
		t.Fatal(err)
	}
	srv2.Close()
	if err := run(1); err != nil {
		t.Fatalf("unit after the kill failed instead of failing over: %v", err)
	}
	// Restart a fresh worker on the same address (the old port may linger
	// briefly) and wait for the prober to re-admit it.
	var srv3 *Server
	for deadline := time.Now().Add(5 * time.Second); ; {
		l, err := net.Listen("tcp", addr2)
		if err == nil {
			srv3 = NewServer(1)
			go srv3.Serve(l)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr2, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	defer srv3.Close()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if set.Health()[1].Readmits >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted worker never re-admitted: %+v", set.Health()[1])
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := run(1); err != nil {
		t.Fatalf("unit on the re-admitted worker: %v", err)
	}
	h := set.Health()[1]
	if h.State != "up" || h.Readmits < 1 || h.ReadmitUnits < 1 {
		t.Fatalf("re-admitted slot health %+v, want up with a readmit-served unit", h)
	}
	if srv3.UnitsDone() < 1 {
		t.Fatalf("restarted worker served %d units, want at least the re-admitted one", srv3.UnitsDone())
	}
	for _, b := range set.Backends() {
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	srv1.Close()
	srv3.Close()
	waitGoroutines(t, base)
}

// TestCloseWithinAbandonsWedgedSession checks the bounded drain: a session
// wedged in a unit task (here, a blocking OnUnitStart hook) is abandoned —
// counted, not waited for — while the client observes the teardown as a
// backend failure; once the wedge releases, a second close drains cleanly.
func TestCloseWithinAbandonsWedgedSession(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := NewServer(1)
	started := make(chan struct{})
	release := make(chan struct{})
	srv.OnUnitStart = func() {
		close(started)
		<-release
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	b, err := Dial(l.Addr().String(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	frag := testFragment(t)
	probe, _ := testStreams(1, 2)
	done := make(chan error, 1)
	b.RunGroup(&engine.GroupUnit{GID: 0, Probe: []*vector.Batch{probe.batches[0]}},
		frag, func(*vector.Batch) {}, func(err error) { done <- err })
	<-started
	abandoned, err := srv.CloseWithin(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if abandoned != 1 {
		t.Fatalf("drain abandoned %d sessions, want the 1 wedged one", abandoned)
	}
	if err := <-done; !errors.Is(err, ErrBackendDown) {
		t.Fatalf("wedged unit completed with %v, want ErrBackendDown", err)
	}
	close(release)
	if _, err := srv.CloseWithin(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	b.Close()
	waitGoroutines(t, base)
}
