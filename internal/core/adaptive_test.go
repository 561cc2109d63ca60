package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/southbound"
)

// serveEchoSwallowBarriers answers echo requests on the device side and
// silently swallows everything else (FlowMods, barriers) — a live but
// write-blackholed channel, the scenario adaptive fences must fail fast
// on. Exits when the conn closes.
func serveEchoSwallowBarriers(c southbound.Conn) {
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		if m.Type == southbound.TypeEchoRequest {
			_ = c.Send(southbound.Msg{Type: southbound.TypeEchoReply, Xid: m.Xid, Body: m.Body})
		}
	}
}

// TestRTTEstimatorConverges: echo round trips feed the Jacobson/Karels
// estimator; after a handful of pings the estimate is positive, sane, and
// the sample count matches. The table pins how rtoLocked turns an
// estimate into a fence deadline.
func TestRTTEstimatorConverges(t *testing.T) {
	dev, devEnd := dialScripted(t)
	go serveEchoSwallowBarriers(devEnd)
	for i := 0; i < 10; i++ {
		if err := dev.Ping(time.Second); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	srtt, rttvar, n := dev.RTTEstimate()
	if n != 10 {
		t.Fatalf("samples = %d, want 10", n)
	}
	if srtt <= 0 || srtt > 100*time.Millisecond {
		t.Fatalf("srtt = %v, want a sane in-process RTT", srtt)
	}
	if rttvar < 0 {
		t.Fatalf("rttvar = %v, negative", rttvar)
	}

	for _, tc := range []struct {
		name         string
		srtt, rttvar time.Duration
		samples      int64
		want         time.Duration
	}{
		{"before the first sample", 0, 0, 0, time.Second},
		{"srtt+4*rttvar", 20 * time.Millisecond, 5 * time.Millisecond, 3, 40 * time.Millisecond},
		{"floored at MinRTO", 100 * time.Microsecond, 0, 3, 5 * time.Millisecond},
		{"capped at RequestTimeout", 800 * time.Millisecond, 100 * time.Millisecond, 3, time.Second},
	} {
		dev.mu.Lock()
		dev.RequestTimeout, dev.MinRTO = time.Second, 5*time.Millisecond
		dev.srtt, dev.rttvar, dev.rttSamples = tc.srtt, tc.rttvar, tc.samples
		got := dev.rtoLocked()
		dev.mu.Unlock()
		if got != tc.want {
			t.Errorf("%s: rto = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestAdaptiveFenceFailsFast: once the estimator has samples, a
// blackholed fence exhausts its retry budget on RTT-scale deadlines —
// orders of magnitude before the constant RequestTimeout would have
// noticed.
func TestAdaptiveFenceFailsFast(t *testing.T) {
	dev, devEnd := dialScripted(t)
	go serveEchoSwallowBarriers(devEnd)
	dev.RequestTimeout = 2 * time.Second
	dev.BarrierRetries = 2
	dev.MinRTO = time.Millisecond
	for i := 0; i < 5; i++ {
		if err := dev.Ping(time.Second); err != nil {
			t.Fatalf("ping: %v", err)
		}
	}
	start := time.Now()
	err := dev.InstallRule(dataplane.Rule{Priority: 1})
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "fence failed") {
		t.Fatalf("install on a blackholed channel: %v, want fence-failed", err)
	}
	// Budget: 1ms + 2ms + 4ms of backoff plus scheduling slop — nowhere
	// near the 2s constant (×3 attempts = 6s) a fixed timeout would need.
	if elapsed > time.Second {
		t.Fatalf("adaptive fence took %v, wanted RTT-scale failure", elapsed)
	}
}

// TestShortDeadlineOvertakesLong: the deadline queue is sorted and the
// loop re-arms on insert, so a fresh RTT-scale fence expires while an
// older constant-scale fence is still pending — the ordering property
// the old FIFO queue could not express.
func TestShortDeadlineOvertakesLong(t *testing.T) {
	dev, devEnd := dialScripted(t)
	go serveEchoSwallowBarriers(devEnd)
	dev.RequestTimeout = time.Second
	dev.BarrierRetries = 0
	dev.MinRTO = time.Millisecond

	// Fence A arms before any sample exists → constant 1s deadline.
	errA := make(chan error, 1)
	go func() { errA <- dev.InstallRule(dataplane.Rule{Priority: 1}) }()
	// Wait until A's barrier is actually outstanding.
	for i := 0; i < 200; i++ {
		dev.mu.Lock()
		n := len(dev.barriers)
		dev.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Seed the estimator, then arm fence B → ~1ms deadline.
	for i := 0; i < 5; i++ {
		if err := dev.Ping(time.Second); err != nil {
			t.Fatalf("ping: %v", err)
		}
	}
	errB := make(chan error, 1)
	go func() { errB <- dev.InstallRule(dataplane.Rule{Priority: 2}) }()

	select {
	case err := <-errB:
		if err == nil {
			t.Fatal("fence B succeeded on a blackholed channel")
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("fence B did not expire ahead of fence A: deadline queue not re-armed")
	}
	select {
	case err := <-errA:
		t.Fatalf("fence A resolved early: %v", err)
	default: // still pending, as its 1s deadline demands
	}
	if err := <-errA; err == nil {
		t.Fatal("fence A succeeded on a blackholed channel")
	}
}
