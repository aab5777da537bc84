// Package fl is the synchronous federated-learning engine: a parameter
// server aggregating FedAvg updates from simulated mobile clients. Each
// round, every participant downloads the global model, trains one local
// epoch over its assigned data, and uploads its weights; the server takes
// the sample-weighted average (McMahan et al. [2]). Round wall time is the
// makespan over participants of simulated computation (device package)
// plus communication (network package); model quality comes from real
// gradient descent on the nn package.
//
// Clients within a synchronous round are independent by construction, so
// the engine trains them concurrently on a bounded worker pool
// (Config.Workers) and then aggregates in client-ID order after the
// join — a run is bit-identical for any Workers value at a fixed Seed.
package fl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/metrics"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/sample"
	"fedsched/internal/tensor"
	"fedsched/internal/trace"
)

// ErrCancelled reports a run stopped early through Config.Cancel. The
// engines wrap it with the stopping round; match with errors.Is. The
// History returned alongside it holds every completed round and the
// global model as of the stop — a checkpointed run can later resume
// past the same point.
var ErrCancelled = errors.New("run cancelled")

// Client is one federated participant.
type Client struct {
	ID     int
	Name   string
	Device *device.Device // nil disables time simulation for this client
	Link   network.Link
	Local  *data.Dataset // local training data (nil or empty → skipped)

	net   nn.Trainer
	rng   *rand.Rand
	round int // rounds this client has trained (drives LR schedules)
}

// NewClient constructs a client. dev may be nil when only accuracy (not
// time) is being measured.
func NewClient(id int, name string, dev *device.Device, link network.Link, local *data.Dataset) *Client {
	return &Client{ID: id, Name: name, Device: dev, Link: link, Local: local}
}

// Config drives a federated run.
type Config struct {
	Arch      *nn.Arch
	Rounds    int
	BatchSize int
	LR        float64
	Momentum  float64
	// Seed makes the whole run deterministic (init, shuffles, dropout).
	Seed int64
	// Precision selects the element type clients train in (nn.F64, the
	// default, or nn.F32). Server-side state — the global model, the
	// FedAvg reduction, evaluation — stays float64 either way, so the
	// deterministic post-join reduction guarantees are precision-
	// independent: histories are bit-identical for any Workers value at
	// a fixed (Seed, Precision).
	Precision nn.Precision
	// Workers bounds how many clients train concurrently within a round
	// (all three engines honour it). Zero means runtime.GOMAXPROCS(0);
	// negative values clamp to 1 (strictly sequential, no goroutines);
	// the effective count never exceeds the participant count. The
	// History is bit-identical for every Workers value at a fixed Seed:
	// aggregation always happens after the round's join, in client order.
	Workers int
	// EvalEvery evaluates test accuracy every k rounds (and always on the
	// final round). Zero means final-round only.
	EvalEvery int
	// SecureAgg aggregates client updates through pairwise-mask secure
	// aggregation (internal/secagg) instead of plaintext averaging — the
	// protection the paper's system model assumes (§IV-A). The server then
	// sees only the weighted sum, never an individual update. Costs one
	// fixed-point quantization (~2⁻²⁴ per weight) per round.
	SecureAgg bool
	// DeadlineSeconds, when positive, drops any participant whose
	// compute+comm time exceeds it from that round's aggregation — the
	// hard straggler dropout of Bonawitz et al. [5] that the paper
	// criticizes for "not attempting to make best use from their data"
	// (§II-B). Run only; DESIGN §13 states the round-closing rule.
	DeadlineSeconds float64
	// LRSchedule, when set, overrides LR per round (see nn.StepDecayLR,
	// nn.CosineLR).
	LRSchedule nn.LRSchedule
	// Sampler, when set, draws each round's cohort from the data-holding
	// clients: Cohort(round, …) returns indices into that list, and only
	// those clients train, aggregate and idle that round — the rest of the
	// fleet does no work at all (their devices stay untouched and their
	// personal round counters, which drive LRSchedule, do not advance).
	// Its Population() must equal the data-holding client count. Nil means
	// every client participates every round, the pre-sampling behavior.
	// Run (per-round cohorts) and RunGossip (per-round, rounds with < 2
	// eligible clients idle) honour it; RunAsync draws one cohort at run
	// start, since it has no synchronous rounds to re-sample at.
	Sampler sample.Sampler
	// Trace, when non-nil, receives the run's round-trace: per-client
	// round events (compute/comm seconds, energy, battery, temperature,
	// DVFS throttle transitions, assigned samples) and per-round
	// aggregates (makespan, straggler id, loss, accuracy). Each client
	// buffers its events in a private ring during the parallel section;
	// the engine merges them post-join in client order, so the trace is
	// bit-identical for any Workers value — same contract as the History.
	Trace *trace.Recorder
	// Faults, when non-nil, injects deterministic client faults
	// (internal/fault): crashes and battery death mid-shard, link flaps
	// and degradation, corrupted updates. Faulted updates never
	// aggregate; the time, energy and heat spent before the failure are
	// still simulated. Draws are pure hashes of (kind, round, client,
	// Faults.Seed), so faulty runs stay bit-identical for any Workers.
	Faults *fault.Plan
	// Quorum, when positive, closes each round after the first Quorum
	// surviving updates and discards the late ones — the over-selection
	// pattern of production FL: draw ⌈S·(1+margin)⌉ clients with the
	// Sampler and set Quorum = S, so stragglers and faults eat the
	// margin instead of the round. Run only, and incompatible with
	// SecureAgg (a discarded masked share is unrecoverable); DESIGN §13
	// states the round-closing rule.
	Quorum int
	// MinParticipants, when positive, is the round's participation
	// floor: a round that aggregates fewer surviving updates is recorded
	// as failed (RoundStats.Failed; the global model stands) instead of
	// aborting the run. Run only; DESIGN §13 says when a short round is
	// failed and when it is a run error.
	MinParticipants int
	// CheckpointEvery, when positive with CheckpointSink set (Run
	// only), snapshots the run every k completed rounds: the global
	// model, every client's round/RNG position and device state, the
	// sampler's cooldown state and the history so far. Resuming from
	// the snapshot (Resume) reproduces the uninterrupted run
	// bit-identically — history and trace — at any Workers value.
	CheckpointEvery int
	// CheckpointSink receives each snapshot; typically it serializes via
	// Checkpoint.Save. A sink error aborts the run (returning the
	// partial History).
	CheckpointSink func(*Checkpoint) error
	// Resume, when non-nil (Run only), restores a checkpointed run: the
	// configuration must match the checkpointed one (seed, rounds,
	// clients), and the run continues from Checkpoint.NextRound.
	Resume *Checkpoint
	// Cancel, when non-nil, is polled between rounds (all three round
	// engines honour it; RunAsync polls it at every virtual event).
	// When it reports true the run stops at that boundary and returns
	// the partial History alongside ErrCancelled — completed rounds are
	// never discarded, exactly like the mid-run error paths. The poll
	// runs on the engine goroutine, so the callback may read shared
	// state guarded elsewhere (an atomic flag is the intended shape);
	// it must not block.
	Cancel func() bool
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 20
	}
	if c.LR <= 0 {
		c.LR = 0.05
	}
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	return c
}

// syncOnly rejects the fields only Run honours — the round-closing rule
// and checkpoint/resume — so that the other engines refuse them instead
// of silently ignoring them.
func (c Config) syncOnly(engine string) error {
	if c.Quorum > 0 || c.MinParticipants > 0 || c.DeadlineSeconds > 0 {
		return fmt.Errorf("fl: %s: Quorum, MinParticipants and DeadlineSeconds apply only to Run", engine)
	}
	if c.CheckpointEvery > 0 || c.CheckpointSink != nil || c.Resume != nil {
		return fmt.Errorf("fl: %s: CheckpointEvery, CheckpointSink and Resume apply only to Run", engine)
	}
	return nil
}

// ClientRound records one client's contribution to a round.
type ClientRound struct {
	ClientID    int
	Samples     int
	ComputeS    float64
	CommS       float64
	TrainLoss   float64
	EnergyJ     float64
	Temperature float64
	// Throttles counts the device's DVFS governor transitions (soft
	// engage/release, hard trip/recover) during this round's training.
	Throttles int
	// BatteryFrac is the battery fraction remaining after the round.
	BatteryFrac float64
	// Dropped marks a participant cut by the round deadline; its update
	// was discarded.
	Dropped bool
	// Diverged marks a participant whose local update contained non-finite
	// weights (exploding gradients); the server rejects such updates — the
	// fault-tolerance concern of Smith et al. [10].
	Diverged bool
	// Fault records the injected fault that hit this client this round
	// (fault.None when unaffected). Faulted updates never aggregate.
	Fault fault.Kind
	// Late marks a survivor that finished after the quorum closed
	// (Config.Quorum); its update was discarded.
	Late bool
}

// RoundStats aggregates one synchronous round.
type RoundStats struct {
	Round     int
	Makespan  float64 // max participant compute+comm seconds
	TrainLoss float64 // sample-weighted mean local loss
	Accuracy  float64 // test accuracy (NaN when not evaluated)
	// Failed marks a round that closed below the participation floor
	// (Config.MinParticipants) or with no usable updates at all: nothing
	// aggregated and the global model is unchanged.
	Failed  bool
	Clients []ClientRound
}

// History is the result of a federated run.
type History struct {
	Rounds        []RoundStats
	FinalAccuracy float64
	// Confusion is the final model's confusion matrix on the test set
	// (nil when no test set was given).
	Confusion *metrics.Confusion
	// Model is the final global model (checkpoint it with
	// Model.SaveWeights).
	Model        *nn.Network
	TotalSeconds float64 // Σ round makespans
	TotalEnergyJ float64
}

// Run executes synchronous FedAvg. test may be nil to skip evaluation.
// The history and trace are bit-identical for any Workers value at a
// fixed seed, and every round emits its per-client and summary events
// (plus one KindFault event per injected fault).
//
// When a mid-run error occurs (a failed round below the legacy no-floor
// path, a secure-aggregation dropout, a checkpoint-sink failure), the
// completed rounds are NOT discarded: the partial History — including
// the global model as of the last completed round — is returned
// alongside the error.
//
// fedlint:deterministic
// fedlint:trace KindClientRound,KindRoundSummary,KindFault
func Run(cfg Config, clients []*Client, test *data.Dataset) (*History, error) {
	cfg = cfg.withDefaults()
	if cfg.Arch == nil {
		return nil, fmt.Errorf("fl: no architecture")
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("fl: no clients")
	}
	if err := cfg.Faults.Check(); err != nil {
		return nil, fmt.Errorf("fl: %w", err)
	}
	if cfg.SecureAgg && cfg.Quorum > 0 {
		// The quorum cut discards late masked shares by design, and the
		// pairwise-mask protocol cannot recover them (see DESIGN).
		return nil, fmt.Errorf("fl: Quorum is incompatible with SecureAgg")
	}
	active := make([]*Client, 0, len(clients))
	for _, c := range clients {
		if c.Local != nil && c.Local.Len() > 0 {
			active = append(active, c)
		}
	}
	if len(active) == 0 {
		return nil, fmt.Errorf("fl: no client holds data")
	}
	if err := checkSampler(cfg.Sampler, len(active)); err != nil {
		return nil, err
	}

	rootRNG := rand.New(rand.NewSource(cfg.Seed))
	global := cfg.Arch.Build(rootRNG)
	for _, c := range clients {
		// Geometry clone at the configured precision; weights overwritten.
		c.net = nn.NewTrainer(cfg.Precision, cfg.Arch, rootRNG, cfg.LR, cfg.Momentum)
		c.rng = rand.New(rand.NewSource(cfg.Seed + int64(c.ID)*7919 + 1))
	}

	modelBytes := cfg.Arch.SizeBytes()
	hist := &History{}
	globalW := global.GetWeights()
	crs := make([]ClientRound, len(active))
	spans := make([]float64, len(active))
	diverged := make([]bool, len(active))
	participants := make([]*Client, 0, len(active))
	sampleCounts := make([]int, 0, len(active))
	clientTrace := attachClientTracers(cfg.Trace, active)
	selIdent, selBuf, recsSel := samplerScratch(cfg.Sampler, len(active), clientTrace != nil)
	closer := newRoundCloser(len(active), cfg.Sampler)
	rule := roundRule{deadline: cfg.DeadlineSeconds, quorum: cfg.Quorum, minParticipants: cfg.MinParticipants}
	// A short round is Failed when the run expects attrition, else an error.
	tolerant := cfg.DeadlineSeconds > 0 || cfg.MinParticipants > 0 || cfg.Faults.Active()
	// sumW is the plaintext aggregation scratch, allocated once and
	// reused (zeroed) every round instead of cloning per participant.
	var sumW []*tensor.Tensor

	// finish stamps the run-final fields; it is shared by the success
	// path and the partial-History error paths so callers can always
	// checkpoint or inspect what completed.
	finish := func() *History {
		global.SetWeights(globalW)
		hist.Model = global
		for _, c := range clients {
			if c.Device != nil {
				hist.TotalEnergyJ += c.Device.EnergyJ
			}
		}
		return hist
	}

	startRound := 0
	if cfg.Resume != nil {
		next, err := resumeRun(cfg, active, global, hist)
		if err != nil {
			return nil, err
		}
		startRound = next
		globalW = global.GetWeights()
	}

	// checkpointAfter snapshots the run once `round` has fully completed
	// (history appended, devices idled), when the cadence says so.
	checkpointAfter := func(round int) error {
		if cfg.CheckpointEvery <= 0 || cfg.CheckpointSink == nil || (round+1)%cfg.CheckpointEvery != 0 {
			return nil
		}
		ck, err := buildCheckpoint(cfg, active, global, globalW, hist, round+1)
		if err != nil {
			return err
		}
		return cfg.CheckpointSink(ck)
	}

	for round := startRound; round < cfg.Rounds; round++ {
		if cfg.Cancel != nil && cfg.Cancel() {
			return finish(), fmt.Errorf("fl: run stopped before round %d: %w", round, ErrCancelled)
		}
		stats := RoundStats{Round: round}

		// The round's cohort: indices into active. Without a sampler every
		// client participates; with one, only the drawn cohort does any
		// work this round.
		sel := selIdent
		if cfg.Sampler != nil {
			sel = cfg.Sampler.Cohort(round, selBuf)
		}
		if len(sel) == 0 {
			// Nobody available (availability-window sampling at a dead
			// hour): an idle round, recorded as such.
			stats.TrainLoss = math.NaN()
			stats.Accuracy = -1
			emitRoundTrace(cfg.Trace, nil, stats, -1)
			hist.Rounds = append(hist.Rounds, stats)
			if err := checkpointAfter(round); err != nil {
				return finish(), fmt.Errorf("fl: checkpoint after round %d: %w", round, err)
			}
			continue
		}
		roundRecs := clientTrace
		if recsSel != nil {
			for si, i := range sel {
				recsSel[si] = clientTrace[i]
			}
			roundRecs = recsSel[:len(sel)]
		}

		// Local training fans out across the worker pool. Every client
		// owns its network, optimizer, RNG, local shard and simulated
		// device, so workers never share mutable state; everything
		// order-sensitive happens after the join, in cohort order. Fault
		// draws are pure hashes of (round, client id), so evaluating them
		// inside the workers costs nothing in determinism.
		forEach(workerCount(cfg.Workers, len(sel)), len(sel), func(si int) {
			i := sel[si]
			f := cfg.Faults.Fault(round, active[i].ID)
			crs[si] = active[i].trainRound(cfg, globalW, modelBytes, f)
			spans[si] = crs[si].ComputeS + crs[si].CommS
			// An aborted client never touched its trainer, so the
			// non-finite check would read stale weights.
			diverged[si] = f.Kind == fault.None && active[i].net.HasNonFinite()
		})

		k := len(sel)
		rc := closer.closeRound(round, crs[:k], spans[:k], diverged[:k], sel, rule)
		stats.Makespan = rc.makespan
		stats.Clients = append([]ClientRound(nil), crs[:k]...)

		if rc.short {
			if !tolerant {
				return finish(), fmt.Errorf("fl: round %d had no participants", round)
			}
			// Nothing aggregates; the global model stands.
			stats.Failed = true
			stats.TrainLoss = math.NaN()
			stats.Accuracy = -1
			emitRoundTrace(cfg.Trace, roundRecs, stats, rc.straggler)
			hist.Rounds = append(hist.Rounds, stats)
			hist.TotalSeconds += stats.Makespan
			if err := checkpointAfter(round); err != nil {
				return finish(), fmt.Errorf("fl: checkpoint after round %d: %w", round, err)
			}
			continue
		}
		participants, sampleCounts = participants[:0], sampleCounts[:0]
		for si, i := range sel {
			if crs[si].usable() {
				participants = append(participants, active[i])
				sampleCounts = append(sampleCounts, crs[si].Samples)
			}
		}
		if cfg.SecureAgg {
			if len(participants) < len(sel) {
				// The pairwise masks were exchanged across the whole
				// cohort before training; a member that never delivers
				// leaves its mask shares unsummed, and this simulation has
				// no share-recovery round. Silently aggregating would
				// yield a mask-polluted model, so fail loudly instead (see
				// DESIGN).
				return finish(), fmt.Errorf(
					"fl: secure aggregation round %d lost %d of %d masked cohort members; "+
						"pairwise mask shares cannot be recovered — disable SecureAgg to tolerate dropouts",
					round, len(sel)-len(participants), len(sel))
			}
			agg, err := secureRound(global, participants, sampleCounts)
			if err != nil {
				return finish(), err
			}
			globalW = agg
		} else {
			// Weighted plaintext accumulation, straight from the live
			// client weights (no per-client clone). globalW may alias
			// sumW from the previous round — by now every reader of the
			// old global weights has finished.
			sumW = ensureWeightsLike(sumW, globalW)
			for i, c := range participants {
				accumulateWeighted(sumW, c.net.Weights(), float64(sampleCounts[i]))
			}
			scaleWeights(sumW, 1/float64(rc.samples))
			globalW = sumW
		}
		stats.TrainLoss = rc.lossSum / float64(rc.samples)

		// Idle the cohort's devices for the rest of the round so
		// stragglers' heat and fast devices' cooling evolve realistically.
		for si, i := range sel {
			if d := active[i].Device; d != nil {
				d.Idle(stats.Makespan - crs[si].ComputeS - crs[si].CommS)
			}
		}

		evalNow := test != nil && (round == cfg.Rounds-1 || (cfg.EvalEvery > 0 && (round+1)%cfg.EvalEvery == 0))
		if evalNow {
			global.SetWeights(globalW)
			stats.Accuracy = Evaluate(global, test, 256)
		} else {
			stats.Accuracy = -1
		}
		emitRoundTrace(cfg.Trace, roundRecs, stats, rc.straggler)
		hist.Rounds = append(hist.Rounds, stats)
		hist.TotalSeconds += stats.Makespan
		if err := checkpointAfter(round); err != nil {
			return finish(), fmt.Errorf("fl: checkpoint after round %d: %w", round, err)
		}
	}

	finish()
	if test != nil {
		// Evaluate the final model directly: the last round may not have
		// evaluated (all-dropped deadline rounds report -1).
		hist.Confusion = EvaluateConfusion(global, test, 256)
		hist.FinalAccuracy = hist.Confusion.Accuracy()
	}
	return hist, nil
}

// hasNonFinite reports whether any weight of the float64 network is NaN or
// ±Inf. Clients check their own models through Trainer.HasNonFinite; this
// covers server-side networks (the global model).
func hasNonFinite(net *nn.Network) bool {
	for _, p := range net.Params() {
		for _, v := range p.W.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
	}
	return false
}

// trainRound runs one local epoch on the client and returns its stats.
// f is the round's injected fault: an aborted attempt skips the real
// gradient work while still charging its simulated cost (see aborted).
// The fault's Slow factor degrades the link for victims and survivors
// alike.
//
// fedlint:hotpath
func (c *Client) trainRound(cfg Config, globalW []*tensor.Tensor, modelBytes int, f fault.Fault) ClientRound {
	n := c.Local.Len()
	cr := ClientRound{ClientID: c.ID, Samples: n, TrainLoss: -1, Fault: f.Kind}
	if !aborted(f.Kind) {
		c.net.SetWeights(globalW)
		c.net.ResetOpt()
		if cfg.LRSchedule != nil {
			c.net.SetLR(cfg.LRSchedule(c.round))
		}
		c.round++
		cr.TrainLoss = localEpoch(c.net, c.Local, c.rng, cfg.BatchSize)
	}
	if c.Device != nil {
		deviceStep(&cr, c.Device, cfg.Arch, n, cfg.BatchSize, f, c.Link.Degraded(f.Slow).RoundTripTime(modelBytes))
	}
	return cr
}

// EvaluateConfusion runs the model over the test set and returns the full
// confusion matrix (per-class recall/precision for the outlier analyses).
// Test batches fan out across network clones on the worker pool; the
// counts merge in batch order, so the matrix matches the sequential loop
// exactly.
func EvaluateConfusion(net *nn.Network, test *data.Dataset, batch int) *metrics.Confusion {
	if batch <= 0 {
		batch = 256
	}
	c := metrics.NewConfusion(test.Classes)
	n := test.Len()
	if n == 0 {
		return c
	}
	nb := (n + batch - 1) / batch
	preds := make([][]int, nb)
	labels := make([][]int, nb)
	forEachBatch(net, workerCount(0, nb), nb, func(bi int, m *nn.Network) {
		i := bi * batch
		end := min(i+batch, n)
		x, y := test.Batch(i, end)
		preds[bi] = m.Predict(x)
		labels[bi] = y
	})
	for bi := range preds {
		c.Add(labels[bi], preds[bi])
	}
	return c
}

// Evaluate computes test accuracy in batches of at most batch samples.
// Batches fan out across network clones on the worker pool; per-batch
// correct counts merge in batch order (integer sums, so the result is
// identical to the sequential loop for any worker count).
func Evaluate(net *nn.Network, test *data.Dataset, batch int) float64 {
	if test.Len() == 0 {
		return 0
	}
	if batch <= 0 {
		batch = 256
	}
	n := test.Len()
	nb := (n + batch - 1) / batch
	correct := make([]int, nb)
	forEachBatch(net, workerCount(0, nb), nb, func(bi int, m *nn.Network) {
		i := bi * batch
		end := min(i+batch, n)
		x, y := test.Batch(i, end)
		pred := m.Predict(x)
		hits := 0
		for k, p := range pred {
			if p == y[k] {
				hits++
			}
		}
		correct[bi] = hits
	})
	total := 0
	for _, h := range correct {
		total += h
	}
	return float64(total) / float64(n)
}
