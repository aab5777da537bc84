package fl

import (
	"fmt"
	"reflect"
	"testing"

	"fedsched/internal/fault"
)

// reportLog records a closeRound's FailureReporter calls in order.
type reportLog struct{ calls []string }

func (r *reportLog) ReportFailure(client, round int) {
	r.calls = append(r.calls, fmt.Sprintf("fail %d@%d", client, round))
}
func (r *reportLog) ReportSuccess(client int) {
	r.calls = append(r.calls, fmt.Sprintf("ok %d", client))
}

// reportCount counts reports without allocating.
type reportCount struct{ fails, oks int }

func (r *reportCount) ReportFailure(int, int) { r.fails++ }
func (r *reportCount) ReportSuccess(int)      { r.oks++ }

// slot is one hand-built cohort slot.
type slot struct {
	id, samples int
	span        float64
	fault       fault.Kind
	diverged    bool
}

func buildSlots(slots []slot) (crs []ClientRound, spans []float64, diverged []bool, ids []int) {
	for _, s := range slots {
		crs = append(crs, ClientRound{
			ClientID: s.id, Samples: s.samples, Fault: s.fault,
			TrainLoss: 1, EnergyJ: 2, Throttles: 1,
		})
		spans = append(spans, s.span)
		diverged = append(diverged, s.diverged)
		ids = append(ids, 100+s.id) // sampler keys differ from client ids
	}
	return crs, spans, diverged, ids
}

// flags renders each slot's closing flags: F faulted, V diverged,
// D dropped, L late, - unscheduled, + participant.
func flags(crs []ClientRound) string {
	b := make([]byte, len(crs))
	for i := range crs {
		cr := &crs[i]
		switch {
		case cr.Samples <= 0:
			b[i] = '-'
		case cr.Fault != fault.None:
			b[i] = 'F'
		case cr.Diverged:
			b[i] = 'V'
		case cr.Dropped:
			b[i] = 'D'
		case cr.Late:
			b[i] = 'L'
		default:
			b[i] = '+'
		}
	}
	return string(b)
}

func TestCloseRound(t *testing.T) {
	cases := []struct {
		name    string
		slots   []slot
		rule    roundRule
		flags   string
		want    roundClose
		reports []string
	}{
		{
			name: "classify",
			slots: []slot{
				{id: 0, samples: 10, span: 1, fault: fault.Crash},
				{id: 1, samples: 10, span: 2, diverged: true},
				{id: 2, samples: 10, span: 9},
				{id: 3, samples: 0},
				{id: 4, samples: 20, span: 3},
				// A corrupt update that also diverged is still a fault.
				{id: 5, samples: 10, span: 1, fault: fault.Corrupt, diverged: true},
			},
			rule:  roundRule{deadline: 5},
			flags: "FVD-+F",
			want: roundClose{
				makespan: 5, straggler: -1, participants: 1, samples: 20, lossSum: 20,
				energyJ: 12, throttles: 6, faulted: 2,
			},
			reports: []string{"fail 100@7", "fail 101@7", "fail 102@7", "ok 104", "fail 105@7"},
		},
		{
			// The quorum keeps the fastest survivor; the tie at span 2 goes
			// to the lower client id. Late survivors report success.
			name: "quorum tie",
			slots: []slot{
				{id: 9, samples: 10, span: 2},
				{id: 3, samples: 10, span: 4},
				{id: 7, samples: 10, span: 2},
				{id: 1, samples: 10, span: 1, fault: fault.LinkFlap},
				{id: 2, samples: 10, span: 3},
			},
			rule:  roundRule{quorum: 1},
			flags: "LL+FL",
			want: roundClose{
				makespan: 2, straggler: 7, participants: 1, samples: 10, lossSum: 10,
				energyJ: 10, throttles: 5, faulted: 1, late: 3,
			},
			reports: []string{"ok 109", "ok 103", "ok 107", "fail 101@7", "ok 102"},
		},
		{
			// The makespan streams in slot order: a drop seen first caps
			// the makespan at the deadline before any survivor can claim
			// the straggler; a survivor seen first keeps it.
			name: "deadline before straggler",
			slots: []slot{
				{id: 0, samples: 10, span: 6},
				{id: 1, samples: 10, span: 4},
			},
			rule:  roundRule{deadline: 5},
			flags: "D+",
			want: roundClose{
				makespan: 5, straggler: -1, participants: 1, samples: 10, lossSum: 10,
				energyJ: 4, throttles: 2,
			},
			reports: []string{"fail 100@7", "ok 101"},
		},
		{
			name: "straggler before deadline",
			slots: []slot{
				{id: 1, samples: 10, span: 4},
				{id: 0, samples: 10, span: 6},
			},
			rule:  roundRule{deadline: 5},
			flags: "+D",
			want: roundClose{
				makespan: 5, straggler: 1, participants: 1, samples: 10, lossSum: 10,
				energyJ: 4, throttles: 2,
			},
			reports: []string{"ok 101", "fail 100@7"},
		},
		{
			name: "below floor",
			slots: []slot{
				{id: 0, samples: 10, span: 1},
				{id: 1, samples: 10, span: 2, fault: fault.Battery},
			},
			rule:  roundRule{minParticipants: 2},
			flags: "+F",
			want: roundClose{
				makespan: 1, straggler: 0, participants: 1, samples: 10, lossSum: 10,
				energyJ: 4, throttles: 2, faulted: 1, short: true,
			},
			reports: []string{"ok 100", "fail 101@7"},
		},
		{
			name:    "nobody scheduled",
			slots:   []slot{{id: 0}, {id: 1}},
			flags:   "--",
			want:    roundClose{straggler: -1, energyJ: 4, throttles: 2, short: true},
			reports: nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			crs, spans, diverged, ids := buildSlots(c.slots)
			log := &reportLog{}
			k := newRoundCloser(len(crs), nil)
			k.rep = log
			got := k.closeRound(7, crs, spans, diverged, ids, c.rule)
			if f := flags(crs); f != c.flags {
				t.Errorf("flags %q, want %q", f, c.flags)
			}
			if got != c.want {
				t.Errorf("close %+v\nwant  %+v", got, c.want)
			}
			if !reflect.DeepEqual(log.calls, c.reports) {
				t.Errorf("reports %q, want %q", log.calls, c.reports)
			}
		})
	}
}

// TestCloseRoundAllocFree: a warm close with the quorum cut active
// allocates nothing — the kernel runs every round of every engine.
func TestCloseRoundAllocFree(t *testing.T) {
	tmpl, spans, diverged, ids := buildSlots([]slot{
		{id: 4, samples: 10, span: 3}, {id: 1, samples: 10, span: 1},
		{id: 3, samples: 10, span: 2, fault: fault.Crash}, {id: 2, samples: 10, span: 1},
		{id: 0, samples: 10, span: 5, diverged: true}, {id: 5, samples: 10, span: 4},
	})
	crs := make([]ClientRound, len(tmpl))
	k := newRoundCloser(len(crs), nil)
	rep := &reportCount{}
	k.rep = rep
	rule := roundRule{deadline: 4.5, quorum: 2, minParticipants: 1}
	var got roundClose
	allocs := testing.AllocsPerRun(100, func() {
		copy(crs, tmpl)
		got = k.closeRound(3, crs, spans, diverged, ids, rule)
	})
	if allocs != 0 {
		t.Fatalf("closeRound allocated %.1f times per call", allocs)
	}
	if got.late != 2 || got.participants != 2 || got.straggler != 1 {
		t.Fatalf("close %+v", got)
	}
	if f := flags(crs); f != "L+F+VL" {
		t.Fatalf("flags %q", f)
	}
}
