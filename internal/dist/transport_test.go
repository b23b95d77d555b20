package dist

import (
	"context"
	"errors"
	"testing"

	"filterjoin/internal/cost"
	"filterjoin/internal/exec"
)

// scriptLink replays a fixed outcome sequence; after the script runs out
// every attempt delivers instantly. It gives the retry-policy tests an
// exact, hand-checkable schedule.
type scriptLink struct {
	script []Outcome
	n      int
}

func (l *scriptLink) Attempt(int, int64) Outcome {
	if l.n < len(l.script) {
		o := l.script[l.n]
		l.n++
		return o
	}
	return Outcome{}
}

func TestSendFreePathChargesExactly(t *testing.T) {
	ctx := exec.NewContext()
	if err := ctx.Send(2, 64); err != nil {
		t.Fatalf("free send: %v", err)
	}
	want := cost.Counter{NetMsgs: 1, NetBytes: 64}
	if *ctx.Counter != want {
		t.Fatalf("free path charged %s, want %s", ctx.Counter, want.String())
	}
}

func TestNetOverFreeLinkMatchesFreePath(t *testing.T) {
	free := exec.NewContext()
	if err := free.Send(1, 100); err != nil {
		t.Fatal(err)
	}
	viaNet := exec.NewContext()
	viaNet.Net = NewTransport(FreeLink{}, RetryPolicy{})
	if err := viaNet.Send(1, 100); err != nil {
		t.Fatal(err)
	}
	if *free.Counter != *viaNet.Counter {
		t.Fatalf("Net over FreeLink charged %s, free path %s", viaNet.Counter, free.Counter)
	}
}

func TestRetryBackoffSchedule(t *testing.T) {
	// Two drops then success under a 10ms initial backoff: attempts
	// charge 3 msgs and 3×8 bytes, retries 2, waits 10+20.
	link := &scriptLink{script: []Outcome{{Err: ErrDropped}, {Err: ErrDropped}}}
	ctx := exec.NewContext()
	ctx.Net = NewTransport(link, RetryPolicy{MaxAttempts: 4, BackoffMs: 10})
	if err := ctx.Send(3, 8); err != nil {
		t.Fatalf("send should recover: %v", err)
	}
	want := cost.Counter{NetMsgs: 3, NetBytes: 24, Retries: 2, WaitMs: 30}
	if *ctx.Counter != want {
		t.Fatalf("charged %s, want %s", ctx.Counter, want.String())
	}
}

func TestTimeoutCountsAsFailedAttempt(t *testing.T) {
	// Latency above the deadline: the sender waits out the full timeout,
	// then retries; success adds the delivered attempt's latency.
	link := &scriptLink{script: []Outcome{{LatencyMs: 900}, {LatencyMs: 50}}}
	ctx := exec.NewContext()
	ctx.Net = NewTransport(link, RetryPolicy{MaxAttempts: 2, TimeoutMs: 400, BackoffMs: 10})
	if err := ctx.Send(1, 0); err != nil {
		t.Fatalf("send should recover: %v", err)
	}
	want := cost.Counter{NetMsgs: 2, Retries: 1, WaitMs: 400 + 10 + 50}
	if *ctx.Counter != want {
		t.Fatalf("charged %s, want %s", ctx.Counter, want.String())
	}
}

func TestExhaustedRetriesReturnSiteError(t *testing.T) {
	link := &scriptLink{script: []Outcome{
		{Err: ErrDropped}, {Err: ErrSiteDown}, {Err: ErrDropped},
	}}
	ctx := exec.NewContext()
	ctx.Net = NewTransport(link, RetryPolicy{MaxAttempts: 3, BackoffMs: 1})
	err := ctx.Send(7, 16)
	var se *SiteError
	if !errors.As(err, &se) {
		t.Fatalf("want *SiteError, got %v", err)
	}
	if se.Site != 7 || se.Attempts != 3 {
		t.Fatalf("SiteError = site %d after %d attempts, want site 7 after 3", se.Site, se.Attempts)
	}
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("SiteError should unwrap to the last fault, got cause %v", se.Cause)
	}
	// All three attempts are on the bill even though none delivered.
	if ctx.Counter.NetMsgs != 3 || ctx.Counter.Retries != 2 {
		t.Fatalf("charged %s, want 3 msgs / 2 retries", ctx.Counter)
	}
}

func TestForceAfterBoundsConsecutiveFailures(t *testing.T) {
	// A link that always fails, but ForceAfter=2 guarantees delivery on
	// the third attempt — the eventual-delivery cap the fuzz relies on.
	link := &scriptLink{script: []Outcome{
		{Err: ErrDropped}, {Err: ErrDropped}, {Err: ErrDropped}, {Err: ErrDropped},
	}}
	ctx := exec.NewContext()
	n := NewTransport(link, RetryPolicy{MaxAttempts: 4, BackoffMs: 1})
	n.ForceAfter = 2
	ctx.Net = n
	if err := ctx.Send(1, 0); err != nil {
		t.Fatalf("forced delivery should recover: %v", err)
	}
	if ctx.Counter.NetMsgs != 3 {
		t.Fatalf("want forced success on attempt 3, charged %s", ctx.Counter)
	}
	if link.n != 2 {
		t.Fatalf("forced attempt should bypass the link; link saw %d attempts", link.n)
	}
}

func TestChaosScheduleDeterministic(t *testing.T) {
	cfg := ChaosConfig{Seed: 42, DropRate: 0.3, MaxLatencyMs: 50, OutageEvery: 7, OutageLen: 2}
	run := func() (cost.Counter, []bool) {
		ctx := exec.NewContext()
		ctx.Net = NewChaosTransport(cfg, RetryPolicy{MaxAttempts: 4, TimeoutMs: 40, BackoffMs: 5})
		var oks []bool
		for i := 0; i < 200; i++ {
			err := ctx.Send(1+i%3, int64(i%17))
			oks = append(oks, err == nil)
			if err != nil {
				t.Fatalf("default chaos transport must deliver eventually; send %d: %v", i, err)
			}
		}
		return *ctx.Counter, oks
	}
	c1, ok1 := run()
	c2, ok2 := run()
	if c1 != c2 {
		t.Fatalf("same seed produced different charges:\n%s\n%s", c1.String(), c2.String())
	}
	for i := range ok1 {
		if ok1[i] != ok2[i] {
			t.Fatalf("same seed produced different outcome at send %d", i)
		}
	}
	if c1.Retries == 0 || c1.WaitMs == 0 {
		t.Fatalf("chaos schedule injected no faults at all: %s", c1.String())
	}

	other := cfg
	other.Seed = 43
	ctx := exec.NewContext()
	ctx.Net = NewChaosTransport(other, RetryPolicy{MaxAttempts: 4, TimeoutMs: 40, BackoffMs: 5})
	for i := 0; i < 200; i++ {
		if err := ctx.Send(1+i%3, int64(i%17)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if *ctx.Counter == c1 {
		t.Fatalf("different seeds produced identical schedules: %s", c1.String())
	}
}

func TestChaosOutageWindows(t *testing.T) {
	// Pure outage schedule (no drops, no latency): per site, attempts
	// 0..4 deliver, 5..6 are refused. One message during the window
	// needs exactly 3 attempts (two ErrSiteDown, then the window ends).
	l := NewChaosLink(ChaosConfig{OutageEvery: 5, OutageLen: 2})
	for i := 0; i < 5; i++ {
		if out := l.Attempt(1, 0); out.Err != nil {
			t.Fatalf("attempt %d should deliver: %v", i, out.Err)
		}
	}
	for i := 5; i < 7; i++ {
		if out := l.Attempt(1, 0); !errors.Is(out.Err, ErrSiteDown) {
			t.Fatalf("attempt %d should hit the outage window, got %v", i, out.Err)
		}
	}
	if out := l.Attempt(1, 0); out.Err != nil {
		t.Fatalf("window over, attempt should deliver: %v", out.Err)
	}
	// Sites have independent ordinals: site 2 is unaffected.
	if out := l.Attempt(2, 0); out.Err != nil {
		t.Fatalf("site 2 first attempt should deliver: %v", out.Err)
	}
}

func TestSendCancellation(t *testing.T) {
	stdctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, withNet := range []bool{false, true} {
		ctx := exec.NewContext()
		ctx.Caller = stdctx
		if withNet {
			ctx.Net = NewTransport(FreeLink{}, RetryPolicy{})
		}
		err := ctx.Send(1, 8)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("withNet=%v: want context.Canceled, got %v", withNet, err)
		}
		if !ctx.Counter.IsZero() {
			t.Fatalf("withNet=%v: cancelled send must charge nothing, charged %s", withNet, ctx.Counter)
		}
	}
}
