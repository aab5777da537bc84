package fl

import (
	"fmt"
	"math/rand"

	"fedsched/internal/data"
	"fedsched/internal/fault"
	"fedsched/internal/nn"
)

// Topology selects the gossip communication pattern.
type Topology int

const (
	// Ring pairs each client with its successor, alternating even/odd
	// offsets per round so information flows both ways.
	Ring Topology = iota
	// RandomPairs draws a fresh random perfect matching each round.
	RandomPairs
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case Ring:
		return "ring"
	case RandomPairs:
		return "random-pairs"
	}
	return fmt.Sprintf("Topology(%d)", int(t))
}

// GossipConfig drives a decentralized run: there is no parameter server;
// each round clients train locally and then average weights pairwise with
// a peer (decentralized parallel SGD in the style of Lian et al. [8],
// which the paper's system model says the framework is amenable to,
// §IV-A).
type GossipConfig struct {
	Config
	Topology Topology
}

// GossipHistory summarizes a decentralized run.
type GossipHistory struct {
	Rounds       int
	MeanAccuracy float64   // mean over client models
	BestAccuracy float64   // best single client model
	Disagreement float64   // mean max |w_i − w_j| over weights, final round
	PerClient    []float64 // final per-client accuracy
	TotalSeconds float64   // Σ round makespans (compute + peer exchange)
}

// RunGossip executes decentralized training. test may be nil (accuracy
// fields stay zero).
//
// Injected faults (Config.Faults): a fatally-faulted client neither
// trains nor exchanges that round (only its wasted time/energy is
// simulated), and a client with a corrupted exchange trains locally but
// is excluded from the round's pairings — its peers reject the garbage
// model. The round closes by the rule of DESIGN §13, with no deadline,
// quorum or floor; those fields, and checkpoint/resume, are rejected.
//
// fedlint:deterministic
// fedlint:trace KindClientRound,KindRoundSummary,KindFault
func RunGossip(cfg GossipConfig, clients []*Client, test *data.Dataset) (*GossipHistory, error) {
	cfg.Config = cfg.Config.withDefaults()
	if cfg.Arch == nil {
		return nil, fmt.Errorf("fl: no architecture")
	}
	if err := cfg.Faults.Check(); err != nil {
		return nil, fmt.Errorf("fl: %w", err)
	}
	if err := cfg.syncOnly("gossip"); err != nil {
		return nil, err
	}
	var active []*Client
	for _, c := range clients {
		if c.Local != nil && c.Local.Len() > 0 {
			active = append(active, c)
		}
	}
	if len(active) < 2 {
		return nil, fmt.Errorf("fl: gossip needs ≥2 clients with data, have %d", len(active))
	}
	if err := checkSampler(cfg.Sampler, len(active)); err != nil {
		return nil, err
	}

	rootRNG := rand.New(rand.NewSource(cfg.Seed))
	init := cfg.Arch.Build(rootRNG).GetWeights()
	for _, c := range active {
		c.net = nn.NewTrainer(cfg.Precision, cfg.Arch, rootRNG, cfg.LR, cfg.Momentum)
		c.net.SetWeights(init)
		c.rng = rand.New(rand.NewSource(cfg.Seed + int64(c.ID)*7919 + 1))
	}

	hist := &GossipHistory{Rounds: cfg.Rounds}
	pairRNG := rand.New(rand.NewSource(cfg.Seed + 13))
	modelBytes := cfg.Arch.SizeBytes()
	spans := make([]float64, len(active))
	crs := make([]ClientRound, len(active))
	pairable := make([]int, 0, len(active))
	clientTrace := attachClientTracers(cfg.Trace, active)
	selIdent, selBuf, recsSel := samplerScratch(cfg.Sampler, len(active), clientTrace != nil)
	closer := newRoundCloser(len(active), cfg.Sampler)

	for round := 0; round < cfg.Rounds; round++ {
		if cfg.Cancel != nil && cfg.Cancel() {
			hist.Rounds = round
			return hist, fmt.Errorf("fl: gossip stopped before round %d: %w", round, ErrCancelled)
		}
		sel := selIdent
		if cfg.Sampler != nil {
			sel = cfg.Sampler.Cohort(round, selBuf)
		}
		if len(sel) < 2 {
			// Gossip needs a pair; a round with fewer eligible clients
			// idles (no training, no exchange), recorded as empty.
			emitRoundTrace(cfg.Trace, nil, RoundStats{Round: round, Accuracy: -1, TrainLoss: -1}, -1)
			continue
		}
		roundRecs := clientTrace
		if recsSel != nil {
			for si, i := range sel {
				recsSel[si] = clientTrace[i]
			}
			roundRecs = recsSel[:len(sel)]
		}

		// Local epochs are independent (per-client model, RNG, device),
		// so they fan out across the worker pool; everything that couples
		// clients — makespan, idling, pairwise averaging — runs after the
		// join in deterministic order.
		forEach(workerCount(cfg.Workers, len(sel)), len(sel), func(si int) {
			c := active[sel[si]]
			f := cfg.Faults.Fault(round, c.ID)
			link := c.Link.Degraded(f.Slow)
			n := c.Local.Len()
			cr := &crs[si]
			*cr = ClientRound{ClientID: c.ID, Samples: n, TrainLoss: -1, Fault: f.Kind}
			spans[si] = 0
			if aborted(f.Kind) {
				// The client keeps its pre-round model; a flap truncates
				// the upload.
				if c.Device != nil {
					deviceStep(cr, c.Device, cfg.Arch, n, cfg.BatchSize, f, link.UploadTime(modelBytes))
					spans[si] = cr.ComputeS + cr.CommS
				}
				return
			}
			c.net.ResetOpt()
			cr.TrainLoss = localEpoch(c.net, c.Local, c.rng, cfg.BatchSize)
			if c.Device != nil {
				e0, th0 := c.Device.EnergyJ, c.Device.Throttles
				comp, _ := c.Device.TrainSamples(cfg.Arch, n, cfg.BatchSize)
				// Peer exchange: send own model, receive the peer's.
				spans[si] = comp + link.UploadTime(modelBytes) + link.DownloadTime(modelBytes)
				cr.ComputeS = comp
				cr.CommS = spans[si] - comp
				recordDevice(cr, c.Device, e0, th0)
			}
		})
		// The round waits for its slowest clean exchange (DESIGN §13);
		// gossip has no deadline or quorum.
		rc := closer.closeRound(round, crs[:len(sel)], spans[:len(sel)], nil, sel, roundRule{})
		for si, i := range sel {
			if c := active[i]; c.Device != nil {
				c.Device.Idle(rc.makespan - spans[si])
			}
		}
		hist.TotalSeconds += rc.makespan
		loss := -1.0
		if rc.samples > 0 {
			loss = rc.lossSum / float64(rc.samples)
		}
		emitRoundTrace(cfg.Trace, roundRecs, RoundStats{
			Round: round, Makespan: rc.makespan, Accuracy: -1, Clients: crs[:len(sel)],
			TrainLoss: loss,
		}, rc.straggler)

		// Only clean clients exchange: fatal victims never sent a model,
		// and corrupted senders are rejected by their peers. With no fault
		// plan this is the whole cohort, so pairRNG draws exactly as
		// before.
		pairable = pairable[:0]
		for si := range sel {
			if crs[si].Fault == fault.None {
				pairable = append(pairable, si)
			}
		}

		// Pairwise averaging in float64 boundary space: both partners'
		// weights widen into a's boundary tensors, average there, and the
		// result writes back through SetWeights on both sides (a's boundary
		// tensors are only guaranteed to be live views on the f64 path).
		// Pairings draw over the cohort, so the peer graph follows the
		// sampler.
		for _, pair := range pairings(len(pairable), round, cfg.Topology, pairRNG) {
			a, b := active[sel[pairable[pair[0]]]], active[sel[pairable[pair[1]]]]
			wa := a.net.Weights()
			accumulateWeighted(wa, b.net.Weights(), 1)
			scaleWeights(wa, 0.5)
			a.net.SetWeights(wa)
			b.net.SetWeights(wa)
		}
	}

	hist.Disagreement = weightDisagreement(active)
	if test != nil {
		hist.PerClient = make([]float64, len(active))
		for i, c := range active {
			acc := Evaluate(c.net.EvalNetwork(), test, 256)
			hist.PerClient[i] = acc
			hist.MeanAccuracy += acc
			if acc > hist.BestAccuracy {
				hist.BestAccuracy = acc
			}
		}
		hist.MeanAccuracy /= float64(len(active))
	}
	return hist, nil
}

// pairings returns index pairs for the round under the chosen topology.
// With an odd client count one client sits the round out.
func pairings(n, round int, topo Topology, rng *rand.Rand) [][2]int {
	var out [][2]int
	switch topo {
	case RandomPairs:
		perm := rng.Perm(n)
		for i := 0; i+1 < n; i += 2 {
			out = append(out, [2]int{perm[i], perm[i+1]})
		}
	default: // Ring
		// Alternate the pairing offset so averages propagate around the
		// ring: round 0 pairs (0,1)(2,3)…, round 1 pairs (1,2)(3,4)…
		start := round % 2
		for i := start; i+1 < n; i += 2 {
			out = append(out, [2]int{i, i + 1})
		}
		if start == 1 && n%2 == 0 {
			out = append(out, [2]int{n - 1, 0}) // close the ring
		}
	}
	return out
}

// weightDisagreement reports the largest per-weight spread across client
// models (0 when fully converged to consensus).
func weightDisagreement(clients []*Client) float64 {
	if len(clients) < 2 {
		return 0
	}
	ref := clients[0].net.GetWeights()
	worst := 0.0
	for _, c := range clients[1:] {
		w := c.net.GetWeights()
		for k := range ref {
			diff := ref[k].Clone()
			diff.AddScaled(-1, w[k])
			if m := diff.MaxAbs(); m > worst {
				worst = m
			}
		}
	}
	return worst
}
