package fl

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"fedsched/internal/data"
	"fedsched/internal/fault"
	"fedsched/internal/nn"
	"fedsched/internal/sim"
	"fedsched/internal/tensor"
	"fedsched/internal/trace"
)

// AsyncConfig drives an asynchronous federated run. The paper (§II-B)
// argues for synchronous aggregation because "inconsistent gradients could
// easily lead to divergence and amortize the savings in computation time";
// this mode implements the asynchronous alternative (staleness-weighted
// server merging à la Ho et al. [11] / Zheng et al. [12]) so the trade-off
// can be measured instead of assumed.
type AsyncConfig struct {
	Config
	// MaxUpdates stops the run after this many server merges.
	MaxUpdates int
	// Duration stops the run after this much simulated time (seconds).
	// Zero means unbounded (MaxUpdates must then be set).
	Duration float64
	// MixRate is the base server mixing rate η; an update with staleness s
	// is applied with weight η/(1+s)^StalenessPower.
	MixRate float64
	// StalenessPower controls how aggressively stale updates are damped.
	StalenessPower float64
}

func (c AsyncConfig) withDefaults() AsyncConfig {
	c.Config = c.Config.withDefaults()
	if c.MixRate <= 0 {
		c.MixRate = 0.3
	}
	if c.StalenessPower < 0 {
		c.StalenessPower = 0
	}
	if c.MaxUpdates <= 0 && c.Duration <= 0 {
		c.MaxUpdates = 100
	}
	return c
}

// AsyncHistory summarizes an asynchronous run.
type AsyncHistory struct {
	Updates          int
	VirtualSeconds   float64
	FinalAccuracy    float64
	MeanStaleness    float64
	UpdatesPerClient []int
	TotalEnergyJ     float64
}

// RunAsync executes staleness-weighted asynchronous federated learning on
// the simulated testbed. Every client loops download → local epoch →
// upload; the server merges each upload immediately, so fast devices never
// wait for stragglers — at the price of stale gradients.
//
// Real wall-clock parallelism: a client's local epoch is a pure function
// of the weights it pulled and its own RNG/optimizer state, both fixed
// the moment its cycle starts, so with Workers > 1 the gradient descent
// runs ahead on a bounded pool of background futures while the virtual
// event loop advances other clients. The loop joins each future at the
// client's merge event, which keeps every server merge in exact virtual
// time order — results are bit-identical to the sequential engine.
//
// Injected faults (Config.Faults) are drawn per (client cycle, client
// id): a fatal fault wastes the cycle's virtual time and energy without
// ever merging (the trainer and RNG are untouched, exactly as in the
// synchronous engine), and a corrupted upload is rejected at the server
// without advancing the model version. Each costs one KindFault event.
// The synchronous round-closing fields (Quorum, MinParticipants,
// DeadlineSeconds) and checkpoint/resume are rejected: async has no
// rounds to close.
//
// fedlint:deterministic
// fedlint:trace KindMerge,KindFault
func RunAsync(cfg AsyncConfig, clients []*Client, test *data.Dataset) (*AsyncHistory, error) {
	cfg = cfg.withDefaults()
	if cfg.Arch == nil {
		return nil, fmt.Errorf("fl: no architecture")
	}
	if err := cfg.Faults.Check(); err != nil {
		return nil, fmt.Errorf("fl: %w", err)
	}
	if err := cfg.syncOnly("async"); err != nil {
		return nil, err
	}
	// pos[i] is active[i]'s index in clients (and UpdatesPerClient).
	active := make([]*Client, 0, len(clients))
	pos := make([]int, 0, len(clients))
	for i, c := range clients {
		if c.Local != nil && c.Local.Len() > 0 {
			active = append(active, c)
			pos = append(pos, i)
		}
	}
	if len(active) == 0 {
		return nil, fmt.Errorf("fl: no client holds data")
	}
	if err := checkSampler(cfg.Sampler, len(active)); err != nil {
		return nil, err
	}
	if cfg.Sampler != nil {
		// Async has no synchronous rounds to re-sample at, so the cohort is
		// drawn once (round 0) and cycles for the whole run.
		sel := cfg.Sampler.Cohort(0, nil)
		if len(sel) == 0 {
			return nil, fmt.Errorf("fl: async sampler drew an empty cohort")
		}
		sub := make([]*Client, len(sel))
		subPos := make([]int, len(sel))
		for i, idx := range sel {
			sub[i], subPos[i] = active[idx], pos[idx]
		}
		active, pos = sub, subPos
	}

	rootRNG := rand.New(rand.NewSource(cfg.Seed))
	global := cfg.Arch.Build(rootRNG)
	globalW := global.GetWeights()
	version := 0

	for _, c := range active {
		c.net = nn.NewTrainer(cfg.Precision, cfg.Arch, rootRNG, cfg.LR, cfg.Momentum)
		c.rng = rand.New(rand.NewSource(cfg.Seed + int64(c.ID)*7919 + 1))
		if cfg.Trace != nil && c.Device != nil {
			// Device work (TrainSamples/Idle) runs on the event-loop
			// goroutine only — the background futures touch nothing but
			// the network — so devices can share the run recorder.
			c.Device.Tracer = cfg.Trace
			c.Device.TraceID = c.ID
		}
	}

	hist := &AsyncHistory{UpdatesPerClient: make([]int, len(clients))}
	stalenessSum := 0.0
	modelBytes := cfg.Arch.SizeBytes()
	deadline := cfg.Duration
	if deadline <= 0 {
		deadline = math.Inf(1)
	}

	var engine sim.Engine
	engine.Tracer = cfg.Trace
	// cancelled latches the first true poll of Config.Cancel so every
	// later done() check agrees — in-flight event callbacks all no-op
	// from that moment and the run winds down at the current virtual
	// time, like hitting MaxUpdates.
	cancelled := false
	done := func() bool {
		if !cancelled && cfg.Cancel != nil && cfg.Cancel() {
			cancelled = true
		}
		return cancelled || (cfg.MaxUpdates > 0 && hist.Updates >= cfg.MaxUpdates) || engine.Now() > deadline
	}

	workers := workerCount(cfg.Workers, len(active))
	// outstanding counts in-flight training futures; it is only touched
	// from the event-loop goroutine. inflight joins every future before
	// RunAsync returns so no goroutine outlives the engine.
	outstanding := 0
	var inflight sync.WaitGroup

	// train runs c's local epoch from the pulled weights — the
	// compute-heavy, side-effect-free-outside-c part of a cycle.
	train := func(c *Client, pulled []*tensor.Tensor) {
		c.net.SetWeights(pulled)
		c.net.ResetOpt()
		localEpoch(c.net, c.Local, c.rng, cfg.BatchSize)
	}

	// cycles counts each client's started iterations — the "round" key for
	// its fault draws. Touched only on the event-loop goroutine.
	cycles := make([]int, len(active))

	// cycle runs one client iteration: the closure chain mirrors the
	// download → train → upload pipeline in virtual time.
	var cycle func(ci int)
	cycle = func(ci int) {
		if done() {
			return
		}
		c := active[ci]
		f := cfg.Faults.Fault(cycles[ci], c.ID)
		fcycle := cycles[ci]
		cycles[ci]++
		link := c.Link.Degraded(f.Slow)
		if aborted(f.Kind) {
			// Aborted attempt: only the wasted virtual time and energy
			// are simulated (faultCost, with the upload as the comm a
			// flap truncates) — then the client starts its next cycle,
			// like a restarted app.
			commDown := link.DownloadTime(modelBytes)
			engine.After(commDown, func() {
				if done() {
					return
				}
				n := c.Local.Len()
				var e0 float64
				if c.Device != nil {
					e0 = c.Device.EnergyJ
				}
				compute, commUp := faultCost(c.Device, cfg.Arch, n, cfg.BatchSize, f, link.UploadTime(modelBytes))
				energy, battery := 0.0, 1.0
				if c.Device != nil {
					energy, battery = c.Device.EnergyJ-e0, c.Device.BatteryRemaining()
				}
				engine.After(compute+commUp, func() {
					if done() {
						return
					}
					cfg.Trace.Emit(trace.Event{
						Kind: trace.KindFault, Round: fcycle, Client: c.ID,
						Samples: n, Flag: int(f.Kind), AtS: engine.Now(),
						ComputeS: compute, CommS: commDown + commUp,
						EnergyJ: energy, Battery: battery,
					})
					cycle(ci)
				})
			})
			return
		}
		versionAtPull := version
		pulled := cloneWeights(globalW)
		// Speculatively start the local epoch on a background future when
		// the pool has room and the lane budget allows it. The inputs are
		// frozen (pulled is a snapshot; c's state is untouched until the
		// join below), so the future computes exactly what the inline
		// path would.
		var trained chan struct{}
		if workers > 1 && outstanding < workers && tensor.TryAcquireLanes(1) == 1 {
			outstanding++
			trained = make(chan struct{})
			inflight.Add(1)
			go func() {
				defer inflight.Done()
				train(c, pulled)
				tensor.ReleaseLanes(1)
				close(trained)
			}()
		}
		commDown := link.DownloadTime(modelBytes)
		engine.After(commDown, func() {
			if trained != nil {
				<-trained // join before anything can observe c's state
				outstanding--
			}
			if done() {
				return
			}
			if trained == nil {
				// Sequential path: real gradient descent inline.
				train(c, pulled)
			}
			compute, energy, battery := 0.0, 0.0, 1.0
			if c.Device != nil {
				e0 := c.Device.EnergyJ
				compute, _ = c.Device.TrainSamples(cfg.Arch, c.Local.Len(), cfg.BatchSize)
				c.Device.Idle(link.UploadTime(modelBytes))
				energy = c.Device.EnergyJ - e0
				battery = c.Device.BatteryRemaining()
			}
			engine.After(compute+link.UploadTime(modelBytes), func() {
				if done() {
					return
				}
				if f.Kind == fault.Corrupt {
					// The upload arrived but is garbage: the server
					// rejects it without touching the model or version.
					// The client trained for real (its RNG advanced), so
					// only the merge is lost.
					cfg.Trace.Emit(trace.Event{
						Kind: trace.KindFault, Round: fcycle, Client: c.ID,
						Samples: c.Local.Len(), Flag: int(f.Kind), AtS: engine.Now(),
						ComputeS: compute, CommS: commDown + link.UploadTime(modelBytes),
						EnergyJ: energy, Battery: battery,
					})
					cycle(ci)
					return
				}
				// Server merge with staleness damping.
				staleness := float64(version - versionAtPull)
				eta := cfg.MixRate / math.Pow(1+staleness, cfg.StalenessPower)
				scaleWeights(globalW, 1-eta)
				accumulateWeighted(globalW, c.net.Weights(), eta)
				version++
				hist.Updates++
				hist.UpdatesPerClient[pos[ci]]++
				stalenessSum += staleness
				cfg.Trace.Emit(trace.Event{
					Kind: trace.KindMerge, Round: hist.Updates - 1, Client: c.ID,
					Samples: c.Local.Len(), Staleness: int(staleness), AtS: engine.Now(),
					ComputeS: compute, CommS: commDown + link.UploadTime(modelBytes),
					EnergyJ: energy, Battery: battery,
				})
				cycle(ci) // immediately start the next iteration
			})
		})
	}

	for ci := range active {
		cycle(ci)
	}
	if math.IsInf(deadline, 1) {
		// Unbounded duration: run events until MaxUpdates hits; remaining
		// callbacks see done() and no-op.
		for engine.Pending() > 0 && !done() {
			engine.Step()
		}
	} else {
		engine.RunUntil(deadline)
	}
	// Join any futures whose merge events never fired (run ended first):
	// nothing may mutate client state after we return.
	inflight.Wait()

	hist.VirtualSeconds = engine.Now()
	if hist.Updates > 0 {
		hist.MeanStaleness = stalenessSum / float64(hist.Updates)
	}
	global.SetWeights(globalW)
	if test != nil {
		hist.FinalAccuracy = Evaluate(global, test, 256)
	}
	for _, c := range active {
		if c.Device != nil {
			hist.TotalEnergyJ += c.Device.EnergyJ
		}
	}
	if cancelled {
		return hist, fmt.Errorf("fl: async run stopped after %d merges: %w", hist.Updates, ErrCancelled)
	}
	return hist, nil
}
