// Package dist is the fault model of the simulated network: the Link a
// message attempt crosses (FreeLink or the seeded ChaosLink), the retry
// policy Net drives it under, and the SiteError a remote operator
// surfaces when the policy gives up. The crossings themselves — Ship,
// the remote IndexNLJoin's per-probe key message, the Filter Join's
// filter-set shipment — live in exec and route through
// exec.Context.Send, which charges the free instant network when no
// transport is attached (the pre-chaos behavior, bit-for-bit) and
// otherwise calls Net.Send.
//
// The layering (DESIGN.md §8):
//
//	exec.Context.Send(site, bytes)  free path when ctx.Net == nil
//	  └─ Net.Send                   policy: per-attempt charge, timeout, retry, backoff
//	       └─ Link.Attempt          one raw delivery attempt (FreeLink or ChaosLink)
//
// Everything is simulated time: injected latency, timeouts, and backoff
// waits charge cost.Counter.WaitMs instead of sleeping, so chaos runs
// are exactly as fast and exactly as deterministic as fault-free ones.
package dist

import (
	"errors"
	"fmt"
	"sync"

	"filterjoin/internal/exec"
)

// Sentinel faults a Link can inject. They are transient by construction:
// a later attempt to the same site may succeed.
var (
	// ErrDropped marks a message lost in transit.
	ErrDropped = errors.New("dist: message dropped")
	// ErrSiteDown marks a transient site outage refusing the message.
	ErrSiteDown = errors.New("dist: site down")
	// ErrTimeout marks an attempt whose delivery latency exceeded the
	// policy's per-attempt deadline; produced by Net, never by a Link.
	ErrTimeout = errors.New("dist: send timed out")
)

// SiteError is the typed failure a remote operator surfaces when the
// transport exhausts its retry budget against one site. The facade
// recognizes it (errors.As) and degrades to the plan's fault-free
// fallback instead of failing the query.
type SiteError struct {
	Site     int   // the unreachable site
	Attempts int   // delivery attempts made, including the first
	Cause    error // the last attempt's fault
}

// Error implements error.
func (e *SiteError) Error() string {
	return fmt.Sprintf("dist: site %d unreachable after %d attempts: %v", e.Site, e.Attempts, e.Cause)
}

// Unwrap exposes the last fault for errors.Is chains.
func (e *SiteError) Unwrap() error { return e.Cause }

// Outcome is the result of one raw delivery attempt.
type Outcome struct {
	LatencyMs int64 // simulated delivery latency
	Err       error // nil on delivery; ErrDropped / ErrSiteDown on a fault
}

// Link models the raw wire: one delivery attempt per call, no policy.
type Link interface {
	Attempt(site int, bytes int64) Outcome
}

// FreeLink is the instant, lossless wire: every attempt delivers with
// zero latency. Net over a FreeLink behaves exactly like the nil-Net
// free path (one attempt, no retries, no waits).
type FreeLink struct{}

// Attempt implements Link.
func (FreeLink) Attempt(int, int64) Outcome { return Outcome{} }

// ChaosConfig parameterizes the deterministic fault schedule. The
// schedule is a pure function of (Seed, site, per-site message ordinal):
// the same seed against the same sequence of sends reproduces the exact
// same drops, outages, and latencies, which is what makes chaos runs
// diffable against fault-free ones.
type ChaosConfig struct {
	// Seed selects the schedule. Different seeds give independent fault
	// patterns; the zero seed is as valid as any other.
	Seed int64
	// DropRate is the probability in [0,1] that an attempt is lost in
	// transit (ErrDropped).
	DropRate float64
	// MaxLatencyMs, when > 0, injects a per-attempt delivery latency
	// uniform in [0, MaxLatencyMs]. Latencies above the retry policy's
	// TimeoutMs surface as ErrTimeout.
	MaxLatencyMs int64
	// OutageEvery, when > 0, opens a transient outage window at every
	// site: after each OutageEvery delivered-or-dropped attempts, the
	// next OutageLen attempts are refused with ErrSiteDown.
	OutageEvery int
	// OutageLen is the outage window length in attempts (default 1 when
	// OutageEvery > 0).
	OutageLen int
	// NoEventualDelivery disables the transport's consecutive-failure
	// cap (Net.ForceAfter): a site may then fail more attempts in a row
	// than the whole retry budget, making *SiteError — and the
	// executor's graceful degradation — reachable. The default (false)
	// guarantees every message is eventually delivered, which keeps
	// chaos results row-identical to fault-free runs.
	NoEventualDelivery bool
}

// ChaosLink injects faults from the seeded schedule. Safe for concurrent
// use; a query's transport traffic all happens on its one goroutine, so
// the per-site ordinals — and therefore the schedule — are
// deterministic.
type ChaosLink struct {
	cfg ChaosConfig
	mu  sync.Mutex
	seq map[int]int64 // per-site attempt ordinal
}

// NewChaosLink builds a link over the seeded fault schedule.
func NewChaosLink(cfg ChaosConfig) *ChaosLink {
	if cfg.OutageEvery > 0 && cfg.OutageLen <= 0 {
		cfg.OutageLen = 1
	}
	return &ChaosLink{cfg: cfg, seq: map[int]int64{}}
}

// Attempt implements Link.
func (l *ChaosLink) Attempt(site int, bytes int64) Outcome {
	l.mu.Lock()
	n := l.seq[site]
	l.seq[site] = n + 1
	l.mu.Unlock()

	if l.cfg.OutageEvery > 0 {
		period := int64(l.cfg.OutageEvery + l.cfg.OutageLen)
		if n%period >= int64(l.cfg.OutageEvery) {
			return Outcome{Err: ErrSiteDown}
		}
	}
	h := chaosHash(l.cfg.Seed, int64(site), n)
	if l.cfg.DropRate > 0 && unit(h) < l.cfg.DropRate {
		return Outcome{Err: ErrDropped}
	}
	var lat int64
	if l.cfg.MaxLatencyMs > 0 {
		lat = int64(unit(h>>21) * float64(l.cfg.MaxLatencyMs+1))
	}
	return Outcome{LatencyMs: lat}
}

// chaosHash mixes the schedule coordinates with a splitmix64-style
// finalizer; the low bits of the result are uniform enough for the
// drop/latency draws.
func chaosHash(seed, site, seq int64) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(site)*0xbf58476d1ce4e5b9 ^ uint64(seq)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(uint64(1)<<53)
}

// RetryPolicy is the delivery policy Net applies per message. Zero
// fields take the defaults below.
type RetryPolicy struct {
	// MaxAttempts is the total delivery attempts per message, including
	// the first (default 4). When every attempt faults, Send returns a
	// *SiteError.
	MaxAttempts int
	// TimeoutMs is the per-attempt delivery deadline on injected latency
	// (default 400). An attempt slower than this counts as failed after
	// waiting out the full deadline.
	TimeoutMs int64
	// BackoffMs is the wait before the first retry (default 10); it
	// doubles on every subsequent retry of the same message.
	BackoffMs int64
}

// Defaults the zero fields of p take.
const (
	DefaultMaxAttempts = 4
	DefaultTimeoutMs   = 400
	DefaultBackoffMs   = 10
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.TimeoutMs <= 0 {
		p.TimeoutMs = DefaultTimeoutMs
	}
	if p.BackoffMs <= 0 {
		p.BackoffMs = DefaultBackoffMs
	}
	return p
}

// Net drives messages across a Link under a RetryPolicy; it implements
// exec.Transport. Every attempt — successful or not — charges one
// NetMsg plus the message bytes, waits charge WaitMs, and each attempt
// beyond the first charges one Retry, so EXPLAIN ANALYZE renders the
// full price of a faulty run and the conservation property test holds
// on chaos executions too.
type Net struct {
	Link   Link
	Policy RetryPolicy

	// ForceAfter caps consecutive failed attempts per site: once a site
	// has failed ForceAfter attempts in a row, the next attempt bypasses
	// the Link and delivers cleanly (the transient fault "passed").
	// 0 disables the cap. NewChaosTransport defaults it to
	// MaxAttempts-1 so the differential fuzz always recovers; degrade
	// tests disable it to force SiteError.
	ForceAfter int

	mu     sync.Mutex
	consec map[int]int // per-site consecutive-failure run length
}

// NewTransport wraps link in the retry policy.
func NewTransport(link Link, p RetryPolicy) *Net {
	return &Net{Link: link, Policy: p, consec: map[int]int{}}
}

// NewChaosTransport builds the seeded fault-injecting transport with the
// eventual-delivery cap on: consecutive per-site failures are bounded
// one below the retry budget, so every message is delivered and chaos
// runs return exactly the fault-free rows (at a higher measured cost).
func NewChaosTransport(cfg ChaosConfig, p RetryPolicy) *Net {
	n := NewTransport(NewChaosLink(cfg), p)
	if !cfg.NoEventualDelivery {
		n.ForceAfter = p.withDefaults().MaxAttempts - 1
	}
	return n
}

func (n *Net) failRun(site int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.consec[site]
}

func (n *Net) note(site int, failed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if failed {
		n.consec[site]++
	} else {
		n.consec[site] = 0
	}
}

// Send implements exec.Transport: the retry/timeout/backoff state
// machine of DESIGN.md §8.
func (n *Net) Send(ctx *exec.Context, site int, bytes int64) error {
	p := n.Policy.withDefaults()
	backoff := p.BackoffMs
	var cause error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		ctx.Counter.NetMsgs++
		ctx.Counter.NetBytes += bytes
		var out Outcome
		if n.ForceAfter > 0 && n.failRun(site) >= n.ForceAfter {
			// Transient fault window exhausted: clean delivery.
			out = Outcome{}
		} else {
			out = n.Link.Attempt(site, bytes)
			if out.Err == nil && out.LatencyMs > p.TimeoutMs {
				// The sender waits out the full deadline before giving up.
				out = Outcome{LatencyMs: p.TimeoutMs, Err: ErrTimeout}
			}
		}
		ctx.Counter.WaitMs += out.LatencyMs
		n.note(site, out.Err != nil)
		if out.Err == nil {
			return nil
		}
		cause = out.Err
		if attempt >= p.MaxAttempts {
			return &SiteError{Site: site, Attempts: attempt, Cause: cause}
		}
		ctx.Counter.Retries++
		ctx.Counter.WaitMs += backoff
		backoff *= 2
	}
}
