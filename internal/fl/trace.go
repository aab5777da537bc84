package fl

import (
	"fedsched/internal/fault"
	"fedsched/internal/trace"
)

// clientRingCapacity bounds each client's private throttle ring. A round
// produces a handful of governor transitions per device (engage/release
// pairs plus rare hard trips), so 1024 is generous without being wasteful
// per client.
const clientRingCapacity = 1024

// attachClientTracers gives every active client's device a private event
// ring so throttle transitions recorded during the parallel section never
// race on the shared run recorder. It returns the rings index-aligned
// with active, or nil when tracing is off. The engine drains them after
// each round's join, in client order (emitRoundTrace), which keeps the
// merged trace bit-identical for any worker count.
func attachClientTracers(root *trace.Recorder, active []*Client) []*trace.Recorder {
	if root == nil {
		return nil
	}
	recs := make([]*trace.Recorder, len(active))
	for i, c := range active {
		if c.Device == nil {
			continue
		}
		recs[i] = trace.New(clientRingCapacity)
		c.Device.Tracer = recs[i]
		c.Device.TraceID = c.ID
	}
	return recs
}

// emitRoundTrace merges one finished round into the run trace: per-client
// throttle rings (drained in client order, stamped with the round), one
// KindClientRound event per participant — immediately followed by a
// KindFault event for fault victims — and the KindRoundSummary
// aggregate. stats.Clients is index-aligned with the recs slice — both
// follow the active-client order. Runs on the engine goroutine after the
// round's join; no events are emitted concurrently.
//
// fedlint:hotpath
func emitRoundTrace(root *trace.Recorder, recs []*trace.Recorder, stats RoundStats, straggler int) {
	if root == nil {
		return
	}
	samples, throttles, droppedClients := 0, 0, 0
	energy := 0.0
	for i := range stats.Clients {
		cr := &stats.Clients[i]
		if recs != nil && recs[i] != nil {
			root.DrainRound(recs[i], stats.Round)
		}
		flag := trace.ClientOK
		switch {
		case cr.Fault != fault.None:
			flag = trace.ClientFaulted
		case cr.Diverged:
			flag = trace.ClientDiverged
		case cr.Dropped:
			flag = trace.ClientDropped
			droppedClients++
		case cr.Late:
			flag = trace.ClientLate
		default:
			samples += cr.Samples
		}
		root.Emit(trace.Event{
			Kind: trace.KindClientRound, Round: stats.Round, Client: cr.ClientID,
			Samples: cr.Samples, Throttles: cr.Throttles, Flag: flag,
			ComputeS: cr.ComputeS, CommS: cr.CommS, EnergyJ: cr.EnergyJ,
			Battery: cr.BatteryFrac, TempC: cr.Temperature,
			Loss: trace.Sanitize(cr.TrainLoss),
		})
		if cr.Fault != fault.None {
			// The fault event carries what the failure cost: time and
			// energy burned before the update was lost, and the victim's
			// post-fault battery level. Flag is the fault.Kind wire value.
			root.Emit(trace.Event{
				Kind: trace.KindFault, Round: stats.Round, Client: cr.ClientID,
				Samples: cr.Samples, Flag: int(cr.Fault),
				ComputeS: cr.ComputeS, CommS: cr.CommS, EnergyJ: cr.EnergyJ,
				Battery: cr.BatteryFrac,
			})
		}
		throttles += cr.Throttles
		energy += cr.EnergyJ
	}
	root.Emit(trace.Event{
		Kind: trace.KindRoundSummary, Round: stats.Round, Client: -1,
		Samples: samples, Throttles: throttles, Straggler: straggler,
		Flag: droppedClients, MakespanS: stats.Makespan, EnergyJ: energy,
		Loss: trace.Sanitize(stats.TrainLoss), Accuracy: stats.Accuracy,
	})
}
