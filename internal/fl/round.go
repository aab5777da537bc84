package fl

import (
	"math/rand"
	"sort"

	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/nn"
	"fedsched/internal/sample"
)

// This file holds the pieces every engine shares: one client step (the
// local epoch, the fatal-fault cost model, the device bookkeeping) and
// one synchronous round close. The closing rule itself is stated once,
// in DESIGN §13.

// aborted reports whether the fault kills the client's attempt before its
// update is sent — a crash, a battery death or a link flap. An aborted
// attempt skips the real gradient work (the update would be discarded
// anyway, and leaving the trainer, RNG and round counter untouched means
// a resumed run replays only completed training); only faultCost is
// charged. Corrupt clients train normally and are rejected on receipt.
func aborted(k fault.Kind) bool {
	return k == fault.Crash || k == fault.Battery || k == fault.LinkFlap
}

// faultCost charges an aborted attempt at an n-sample local epoch on d
// and returns the compute and comm seconds it burned. A crash or battery
// death stops Point of the way through the shard and transmits nothing
// (a battery death also drains the account); a link flap computes the
// whole epoch and dies Point of the way through comm, the transfer the
// engine would have made. A nil device charges no compute.
//
// fedlint:hotpath
func faultCost(d *device.Device, arch *nn.Arch, n, batch int, f fault.Fault, comm float64) (computeS, commS float64) {
	if f.Kind == fault.LinkFlap {
		commS = f.Point * comm
	} else {
		n = int(f.Point * float64(n))
	}
	if d == nil {
		return 0, commS
	}
	computeS, _ = d.TrainSamples(arch, n, batch)
	if f.Kind == fault.Battery {
		d.DrainBattery()
	}
	return computeS, commS
}

// deviceStep simulates one client's round on d: an n-sample local epoch
// plus comm seconds of model exchange, or for an aborted attempt only
// what faultCost charges. It fills cr's time fields and, through
// recordDevice, its energy, heat and battery fields.
//
// fedlint:hotpath
func deviceStep(cr *ClientRound, d *device.Device, arch *nn.Arch, n, batch int, f fault.Fault, comm float64) {
	e0, th0 := d.EnergyJ, d.Throttles
	if aborted(f.Kind) {
		cr.ComputeS, cr.CommS = faultCost(d, arch, n, batch, f, comm)
	} else {
		cr.ComputeS, _ = d.TrainSamples(arch, n, batch)
		cr.CommS = comm
	}
	recordDevice(cr, d, e0, th0)
}

// recordDevice fills cr's device fields after a step that started at
// energy e0 and throttle count th0 on d.
//
// fedlint:hotpath
func recordDevice(cr *ClientRound, d *device.Device, e0 float64, th0 int) {
	cr.EnergyJ = d.EnergyJ - e0
	cr.Temperature = d.TempC
	cr.Throttles = d.Throttles - th0
	cr.BatteryFrac = d.BatteryRemaining()
}

// localEpoch shuffles ds with rng and runs one epoch of minibatch SGD on
// net, returning the mean batch loss. The caller owns the prelude (the
// starting weights, optimizer reset and learning rate).
//
// fedlint:hotpath
func localEpoch(net nn.Trainer, ds *data.Dataset, rng *rand.Rand, batch int) float64 {
	ds.Shuffle(rng)
	n := ds.Len()
	lossSum, batches := 0.0, 0
	for i := 0; i < n; i += batch {
		x, y := ds.Batch(i, min(i+batch, n))
		lossSum += net.TrainBatch(x, y)
		net.Step()
		batches++
	}
	return lossSum / float64(batches)
}

// roundRule is a synchronous round's closing policy (DESIGN §13). The
// zero value closes on every surviving slot.
type roundRule struct {
	deadline        float64 // > 0: drop slots whose span exceeds it
	quorum          int     // > 0: close after this many survivors
	minParticipants int     // > 0: a round below this floor is short
}

// roundClose is what closeRound reduces a round's slots to.
type roundClose struct {
	makespan     float64
	straggler    int // client id that set the makespan, -1 if none
	participants int // slots whose update aggregates
	samples      int // their samples
	lossSum      float64
	energyJ      float64 // over every slot, lost ones included
	throttles    int
	faulted      int
	late         int
	// short marks a round with no participant or fewer than the floor.
	short bool
}

// roundCloser owns closeRound's scratch, sized once for the largest
// cohort, so that closing a round allocates nothing.
type roundCloser struct {
	rep    sample.FailureReporter // nil when the sampler is not failure-aware
	order  []int
	sorter spanOrder
}

func newRoundCloser(cohort int, s sample.Sampler) *roundCloser {
	k := &roundCloser{order: make([]int, cohort)}
	k.rep, _ = s.(sample.FailureReporter)
	return k
}

// spanOrder sorts slot indices by (realized span asc, client id asc) via
// a pointer receiver and pre-bound slices — no closures, so the quorum
// cut stays allocation-free.
type spanOrder struct {
	idx   []int
	spans []float64
	crs   []ClientRound
}

func (s *spanOrder) Len() int      { return len(s.idx) }
func (s *spanOrder) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *spanOrder) Less(a, b int) bool {
	x, y := s.idx[a], s.idx[b]
	if s.spans[x] < s.spans[y] {
		return true
	}
	if s.spans[y] < s.spans[x] {
		return false
	}
	return s.crs[x].ClientID < s.crs[y].ClientID
}

// usable reports whether the slot's update aggregates: it was scheduled
// and survived classification and the quorum cut.
func (cr *ClientRound) usable() bool {
	return cr.Samples > 0 && cr.Fault == fault.None && !cr.Diverged && !cr.Dropped && !cr.Late
}

// closeRound closes one synchronous round over its cohort-order slots:
// crs[i] with realized span spans[i], diverged[i] (nil: none diverged),
// reported to the sampler as ids[i]. It sets the slots' Diverged, Dropped
// and Late flags, reduces them in one slot-order pass, and reports each
// scheduled slot's outcome to a failure-aware sampler — the rule of
// DESIGN §13.
//
// fedlint:hotpath
func (k *roundCloser) closeRound(round int, crs []ClientRound, spans []float64, diverged []bool, ids []int, rule roundRule) roundClose {
	// Classify: faulted, then diverged, then over the deadline; the rest
	// are candidates for the quorum cut. Unscheduled slots are skipped.
	n := 0
	for i := range crs {
		cr := &crs[i]
		switch {
		case cr.Samples <= 0 || cr.Fault != fault.None:
		case diverged != nil && diverged[i]:
			cr.Diverged = true
		case rule.deadline > 0 && spans[i] > rule.deadline:
			cr.Dropped = true
		default:
			k.order[n] = i
			n++
		}
	}

	// Quorum: keep the first rule.quorum survivors by (span, client id),
	// a strict total order, so the cut is deterministic.
	if rule.quorum > 0 && n > rule.quorum {
		k.sorter = spanOrder{idx: k.order[:n], spans: spans, crs: crs}
		sort.Sort(&k.sorter)
		for _, i := range k.order[rule.quorum:n] {
			crs[i].Late = true
		}
		k.sorter = spanOrder{}
	}

	// Reduce in slot order. Lost and late slots do not extend the
	// makespan; a deadline drop extends it to the deadline.
	out := roundClose{straggler: -1}
	for i := range crs {
		cr := &crs[i]
		out.energyJ += cr.EnergyJ
		out.throttles += cr.Throttles
		switch {
		case cr.Samples <= 0, cr.Diverged:
		case cr.Fault != fault.None:
			out.faulted++
		case cr.Late:
			out.late++
		case cr.Dropped:
			if rule.deadline > out.makespan {
				out.makespan = rule.deadline
			}
		default:
			if spans[i] > out.makespan {
				out.makespan = spans[i]
				out.straggler = cr.ClientID
			}
			out.participants++
			out.samples += cr.Samples
			out.lossSum += cr.TrainLoss * float64(cr.Samples)
		}
	}
	out.short = out.participants == 0 || (rule.minParticipants > 0 && out.participants < rule.minParticipants)

	// Tell the sampler, in slot order: lost updates are failures; late
	// survivors did finish, so they count as successes.
	if k.rep != nil {
		for i := range crs {
			cr := &crs[i]
			switch {
			case cr.Samples <= 0:
			case cr.Fault != fault.None || cr.Diverged || cr.Dropped:
				k.rep.ReportFailure(ids[i], round)
			default:
				k.rep.ReportSuccess(ids[i])
			}
		}
	}
	return out
}
