package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile for it
// to count as measured rather than guessed.
const minBeyond = 10

// quant is one percentile of a sample set, with the count it rests on.
type quant struct {
	P     float64 // the percentile as a fraction, e.g. 0.9
	Value float64
	N     int // samples in the set
	// Beyond counts the samples ranked above the percentile.
	Beyond int
	// Valid is false for a tail percentile (P > 0.5) with fewer than
	// minBeyond samples beyond it, and for an empty set.
	Valid bool
}

// percentile returns the nearest-rank p-quantile of vals (vals is not
// modified). The nearest rank is ⌈p·n⌉, so exactly n−⌈p·n⌉ samples rank
// above it.
func percentile(vals []float64, p float64) quant {
	q := quant{P: p, N: len(vals), Value: math.NaN()}
	if len(vals) == 0 {
		return q
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	q.Value = s[rank-1]
	q.Beyond = len(s) - rank
	q.Valid = p <= 0.5 || q.Beyond >= minBeyond
	return q
}

// median is percentile(vals, 0.5).Value.
func median(vals []float64) float64 { return percentile(vals, 0.5).Value }

// String renders the percentile with its sample count, flagging an
// invalid tail.
func (q quant) String() string {
	s := fmt.Sprintf("p%g of n=%d", q.P*100, q.N)
	if !q.Valid {
		s += fmt.Sprintf(", INVALID: %d beyond, need %d", q.Beyond, minBeyond)
	}
	return s
}

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// reportSetup reports setup_s as the median of the run's set-ups.
func reportSetup(r *report, setups []float64, what string) {
	r.set("setup_s", median(setups), "s", "lower", fmt.Sprintf("median of n=%d; %s", len(setups), what))
}

// reportRSS reports peak_rss_mb as the median of per-pass peaks.
func reportRSS(r *report, rss []float64) {
	r.set("peak_rss_mb", median(rss), "MB", "lower", fmt.Sprintf("median of n=%d per-pass VmHWM peaks", len(rss)))
}

// reportLatency reports latency_p50_ms and the workload's tail
// percentile as latency_tail_ms; an invalid tail fails the run.
func reportLatency(r *report, workload string, vals []float64, what string) {
	p50 := percentile(vals, 0.5)
	tail := percentile(vals, tailP[workload])
	r.set("latency_p50_ms", p50.Value, "ms", "lower", what+", "+p50.String())
	r.set("latency_tail_ms", tail.Value, "ms", "lower", what+", "+tail.String())
	if !tail.Valid {
		r.problems = append(r.problems, fmt.Sprintf("%s: latency_tail_ms %s", workload, tail))
	}
}

// reportOverhead reports bench.trace_overhead_share: the traced phase's
// latency p50 over the untraced phase's, minus one.
func reportOverhead(r *report, plain, traced []float64, what string) {
	r.layer("bench.trace_overhead_share", median(traced)/median(plain)-1, "fraction",
		fmt.Sprintf("latency p50, %d traced vs %d untraced %s", len(traced), len(plain), what))
}

// runPasses calls pass until budget seconds have passed and at least
// minRounds rounds of perPass each are timed, or exactly nPasses times
// when nPasses > 0.
func runPasses[P any](budget float64, minRounds, nPasses, perPass int, pass func() (P, error)) ([]P, error) {
	var passes []P
	start := time.Now()
	for {
		if nPasses > 0 {
			if len(passes) == nPasses {
				return passes, nil
			}
		} else if len(passes) > 0 && time.Since(start).Seconds() >= budget && len(passes)*perPass >= minRounds {
			return passes, nil
		}
		p, err := pass()
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
}

// flatten concatenates vals over passes.
func flatten[P any](passes []P, vals func(P) []float64) []float64 {
	var out []float64
	for _, p := range passes {
		out = append(out, vals(p)...)
	}
	return out
}

// passMedians formats each pass's median round time.
func passMedians[P any](passes []P, rounds func(P) []float64) string {
	out := make([]string, len(passes))
	for i, p := range passes {
		out[i] = fmt.Sprintf("%.1f", median(rounds(p)))
	}
	return strings.Join(out, " ")
}
