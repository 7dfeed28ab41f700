package main

import (
	"fmt"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// minBeyond is how many samples must lie above a percentile before it
// is reported as the tail of a latency distribution.
const minBeyond = 10

// tailPercentiles are the candidate tail percentiles in tenths of a
// percent, highest first.
var tailPercentiles = []int{999, 990, 950, 900, 750, 500}

// tailPercentile returns, in tenths of a percent, the highest candidate
// percentile with at least minBeyond of n samples above it, and false
// when even the median has fewer.
func tailPercentile(n int) (int, bool) {
	for _, p := range tailPercentiles {
		rank := (n*p + 999) / 1000 // ceil(n·p/1000)
		if n-rank >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// latencies is one named latency distribution in seconds.
type latencies struct {
	name string
	xs   []float64
}

// describe renders the median and the tail percentile tailPercentile
// picks, with the sample count beside it.
func (l *latencies) describe() string {
	n := len(l.xs)
	if n == 0 {
		return fmt.Sprintf("%s: no samples", l.name)
	}
	p, ok := tailPercentile(n)
	if ok && p == 500 {
		return fmt.Sprintf("%s: p50 %.4gs, n=%d (p50 is the highest percentile with %d samples beyond it)", l.name, median(l.xs), n, minBeyond)
	}
	if !ok {
		return fmt.Sprintf("%s: p50 %.4gs, n=%d (too few samples for a tail)", l.name, median(l.xs), n)
	}
	return fmt.Sprintf("%s: p50 %.4gs, p%g %.4gs, n=%d", l.name, median(l.xs),
		float64(p)/10, quantile(l.xs, float64(p)/1000), n)
}

// bestOf keeps, for each operation of a repeated unit of work, the
// least latency any repeat of it took. A repeat regenerates its inputs
// from the same seed and starts from fresh state, so the operation does
// the same work each time. The host does not: the benchmark gets a few
// vCPUs of a shared machine whose neighbours slow them by up to half
// for seconds at a time. The least of repeats spread over the run is
// the operation's cost with those bursts left out; a median of single
// samples moves with the share of the run the host was busy.
type bestOf struct {
	keys []string
	min  map[string]time.Duration
	n    int // samples added
}

// add records one sample of the operation named key.
func (b *bestOf) add(key string, d time.Duration) {
	if b.min == nil {
		b.min = map[string]time.Duration{}
	}
	b.n++
	p, ok := b.min[key]
	if !ok {
		b.keys = append(b.keys, key)
	}
	if !ok || d < p {
		b.min[key] = d
	}
}

// seconds returns each operation's least latency in seconds, in the
// order the operations were first seen.
func (b *bestOf) seconds() []float64 {
	out := make([]float64, len(b.keys))
	for i, k := range b.keys {
		out[i] = b.min[k].Seconds()
	}
	return out
}

// latencies names the least latencies for printing, with the mean
// number of repeats per operation.
func (b *bestOf) latencies(name string) latencies {
	return latencies{
		name: fmt.Sprintf("%s (least of %.1f repeats)", name, ratio(float64(b.n), float64(len(b.keys)))),
		xs:   b.seconds(),
	}
}

// interval is a half-open span of time in nanoseconds.
type interval struct{ start, end int64 }

// coveredLen returns how much of [lo, hi) the union of ivs covers.
// Intervals may overlap (two workers run child calls at once), so the
// union is taken, not the sum.
func coveredLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < lo {
			iv.start = lo
		}
		if iv.end > hi {
			iv.end = hi
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	if len(clipped) == 0 {
		return 0
	}
	var total int64
	cur := clipped[0]
	for _, iv := range clipped[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
		} else if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - coveredLen(children, parent.start, parent.end)
}

// splitmix returns a well-mixed 64-bit value derived from seed and k; it
// derives every per-unit seed (session corpora, mutation samples) from
// the workload seed.
func splitmix(seed int64, k uint64) uint64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*(k+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// subSeed is splitmix folded into a non-negative corpus seed.
func subSeed(seed int64, k uint64) int64 { return int64(splitmix(seed, k) >> 1) }
