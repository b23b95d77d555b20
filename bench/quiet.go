package main

import (
	"sort"
	"time"
)

// The quiet-machine probe.
//
// This box is two virtual cores of a shared host. Other tenants slow
// throughput-bound code here by 1.3x to 1.7x, in bursts of one to some
// tens of milliseconds that for minutes on end cover anything from a
// twentieth to nine tenths of the time, and never speed it up: plan_cold
// read 265 queries per second in one minute and 160 in the next, from
// the same binary on the same seed. A dependent multiply chain, a pointer
// chase and a memset do not see it; a loop of eight independent chains
// does (10.0 us per run when the machine is quiet, 12 to 19 us when it is
// not), which is what sharing a physical core's execution ports looks
// like. No statistic over a run sheds a slowdown that can outlast the
// run, so the benchmark asks the machine instead: each session times
// this fixed register-only kernel between its operations, every
// operation carries the slower of the probes on either side of it, and
// the timings are taken over the operations whose probes read quiet
// (latencyMetrics in run.go). The kernel touches no memory and calls
// nothing, and the box's two cores do not slow each other's kernel, so
// no change to the engine can move it, and with it the choice of samples.

// probeEvery is the least time between two probes of one session. The
// slowdowns come in bursts of one to some tens of milliseconds, so two
// quiet probes this close leave little room for one between them.
const probeEvery = 250 * time.Microsecond

// probeIters sizes one kernel run at about 10 us.
const probeIters = 5000

// probeKernel runs eight independent integer chains n times over.
func probeKernel(n int) uint64 {
	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < n; i++ {
		x := uint64(i)
		a = (a ^ x) * 1099511628211
		b = (b ^ x) * 1099511628211
		c = (c + x) ^ (c >> 7)
		d = (d + x) ^ (d >> 9)
		e = (e ^ x) * 31
		f = (f + x) * 33
		g = (g ^ x) + (g << 3)
		h = (h + x) ^ (h << 5)
	}
	return a + b + c + d + e + f + g + h
}

// probeAt is one probe of a session's log: when it ended, what it read,
// and whether it is the first of a stretch of the closed loop (the time
// before it was not probed).
type probeAt struct {
	at    time.Time
	ns    int32
	first bool
}

// prober is one session's probe state. Not shared between goroutines.
type prober struct {
	at   time.Time // when the last probe ended
	ns   int32     // what it read
	sink uint64    // keeps the kernel's result alive
}

// take runs the kernel twice and keeps the faster run, which an
// interrupt landing in one of them does not move.
func (p *prober) take() int32 {
	t0 := time.Now()
	p.sink += probeKernel(probeIters)
	t1 := time.Now()
	p.sink += probeKernel(probeIters)
	p.at = time.Now()
	p.ns = int32(min(t1.Sub(t0), p.at.Sub(t1)))
	return p.ns
}

// Quiet means within quietMargin of the run's own quiet reading, the
// first percentile of its probe levels. The kernel cannot run faster than
// the core allows, so the low end is firm, but it is not one number: the
// kernel reads some 3 % slower while the second core is at work (as it is
// in every collection cycle), and in some minutes a few percent of the
// probes catch a faster clock still. The margin spans those steps and
// stops well short of a busy sibling's 20 to 90 %. A tighter band, or one
// hung from the tenth percentile, was tried on the same recorded runs:
// the first dropped the operations that overlap a collection cycle, the
// second followed the noise up once nine tenths of a run were noisy.
// When less than quietFloor of the run reads quiet, the quietest
// quietFloor of it is taken instead, and the report shows the limit used.
const (
	quietMargin = 1.08
	quietFloor  = 0.03
)

// quietLimit returns the probe level up to which an operation counts,
// and the run's quiet reading, from every operation's probe level.
func quietLimit(levels []int32) (limit, base int32) {
	if len(levels) == 0 {
		return 0, 0
	}
	s := append([]int32(nil), levels...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	base = s[len(s)/100]
	limit = int32(float64(base) * quietMargin)
	if floor := s[int(quietFloor*float64(len(s)))]; floor > limit {
		limit = floor
	}
	return limit, base
}

// quietLags says, for one session, how long quiet lasts: for each of a
// ladder of lags, the share of its quiet probes that were followed by a
// quiet probe that much later. It is read off the probe log alone.
type quietLags struct {
	lag   []time.Duration // ascending, doubling
	share []float64
}

// The ladder runs from the probe interval to longer than any operation.
const (
	shortestLag = probeEvery
	lagSteps    = 10 // up to 128 ms
)

func newQuietLags(log []probeAt, limit int32) *quietLags {
	q := &quietLags{}
	stretch := make([]int, len(log)) // which stretch of the loop a probe belongs to
	for i := range log {
		if i > 0 {
			stretch[i] = stretch[i-1]
		}
		if log[i].first {
			stretch[i]++
		}
	}
	lag := shortestLag
	for k := 0; k < lagSteps; k, lag = k+1, lag*2 {
		pairs, both, j := 0, 0, 0
		for i := range log {
			if log[i].ns > limit {
				continue
			}
			j = max(j, i)
			for j < len(log) && log[j].at.Sub(log[i].at) < lag {
				j++
			}
			if j == len(log) {
				break
			}
			if stretch[j] != stretch[i] || log[j].at.Sub(log[i].at) >= 2*lag {
				continue
			}
			pairs++
			if log[j].ns <= limit {
				both++
			}
		}
		share := 1.0
		if pairs >= 20 {
			share = float64(both) / float64(pairs)
		} else if k > 0 {
			share = q.share[k-1]
		}
		q.lag = append(q.lag, lag)
		q.share = append(q.share, share)
	}
	return q
}

// fitFloor keeps one lucky long operation from outweighing the rest: no
// operation counts for more than ten of the shortest.
const fitFloor = 0.1

// fit is the chance that an operation whose probes lie d apart reads
// quiet, given that the first of them does: the share at d's place on the
// ladder, in a straight line between the rungs.
func (q *quietLags) fit(d time.Duration) float64 {
	floor := fitFloor * q.share[0]
	k := sort.Search(len(q.lag), func(i int) bool { return q.lag[i] >= d })
	switch {
	case k == 0:
		return max(q.share[0], floor)
	case k == len(q.lag):
		return max(q.share[k-1], floor)
	}
	t := float64(d-q.lag[k-1]) / float64(q.lag[k]-q.lag[k-1])
	return max(q.share[k-1]+t*(q.share[k]-q.share[k-1]), floor)
}
