package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending: percentile must sort
	}
	return v
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		beyond int
		valid  bool
	}{
		{1, 0.5, 1, 0, true},
		{10, 0.5, 5, 5, true},
		{100, 0.5, 50, 50, true},
		{100, 0.9, 90, 10, true}, // exactly ten beyond: valid
		{99, 0.9, 90, 9, false},  // nine beyond: flagged
		{40, 0.75, 30, 10, true}, // testbed-train's p75
		{39, 0.75, 30, 9, false}, // one round short
		{1000, 0.99, 990, 10, true},
		{38, 0.99, 38, 0, false},
	} {
		q := percentile(seq(c.n), c.p)
		if q.Value != c.want || q.Beyond != c.beyond || q.Valid != c.valid || q.N != c.n {
			t.Errorf("percentile(n=%d, p=%g) = %+v, want value %g, %d beyond, valid %v", c.n, c.p, q, c.want, c.beyond, c.valid)
		}
	}
}

func TestPercentileFlagsThinTail(t *testing.T) {
	q := percentile(seq(20), 0.9)
	if q.Valid {
		t.Fatalf("p90 of 20 samples reported valid: %+v", q)
	}
	if s := q.String(); !strings.Contains(s, "INVALID") || !strings.Contains(s, "n=20") {
		t.Errorf("invalid tail prints %q, want its count and an INVALID flag", s)
	}
	if s := percentile(seq(200), 0.9).String(); strings.Contains(s, "INVALID") || !strings.Contains(s, "n=200") {
		t.Errorf("valid tail prints %q", s)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if q := percentile(nil, 0.5); q.Valid || q.N != 0 {
		t.Errorf("empty set: %+v", q)
	}
}

// TestReportLatencyFailsInvalidTail checks that a run too short for its
// tail percentile is an incorrect result, not a silent number.
func TestReportLatencyFailsInvalidTail(t *testing.T) {
	r := newReport()
	reportLatency(r, "population", seq(50), "rounds")
	if len(r.problems) == 0 {
		t.Fatal("p90 over 50 rounds accepted")
	}
	r = newReport()
	reportLatency(r, "population", seq(100), "rounds")
	if len(r.problems) != 0 {
		t.Fatalf("p90 over 100 rounds rejected: %v", r.problems)
	}
	if !strings.Contains(r.lines["latency_tail_ms"], "n=100") {
		t.Errorf("latency_tail_ms line lacks its count: %q", r.lines["latency_tail_ms"])
	}
}
