package main

import (
	"fmt"
	"math"
	"math/rand"
	"syscall"
	"time"

	"fedsched"
	"fedsched/internal/data"
	"fedsched/internal/fl"
	"fedsched/internal/nn"
)

// testbed-train is fedtrain's default recipe driven through public
// calls: paper Testbed II, SMNIST, LeNet-S in f64, a paper-scale
// Fed-LBAP partition rescaled onto the training set, batch 20, lr 0.02,
// momentum 0.9, evaluation every round, two workers.
const (
	tbTestbed   = 2
	tbSamples   = 3000
	tbTest      = 1000
	tbRounds    = 10
	tbMinRounds = 40 // p75 with ten rounds beyond it
	tbAccFloor  = 0.9
	// tbSetups is how many times a pass sets up its inputs; the last
	// set-up is the one that runs. One takes about 40 ms.
	tbSetups = 3
)

var tbArch = nn.LeNetSmall(1, 16, 16, 10)

// tbInputs is one set-up testbed-train run: fresh clients (they carry
// round counters and RNG state) over the seed's datasets.
type tbInputs struct {
	train, test *data.Dataset
	clients     []*fl.Client
	batches     int // mini-batches trained per round over all clients
}

// tbSetupTimes are the per-module set-up timings of one setupTestbed.
type tbSetupTimes struct {
	generate, profile, schedule, partition time.Duration
}

// setupTestbed follows cmd/fedtrain: generate the datasets, profile the
// testbed at paper scale, schedule with Fed-LBAP, rescale and partition.
func setupTestbed(seed int64, st *tbSetupTimes) (*tbInputs, error) {
	t0 := time.Now()
	train, test := fedsched.SMNIST(tbSamples, seed), fedsched.SMNIST(tbTest, seed)
	t1 := time.Now()
	tb := fedsched.NewTestbed(tbTestbed)
	req, err := tb.Request(fedsched.LeNet(train.C, 28, 28, 10), 60000)
	if err != nil {
		return nil, fmt.Errorf("testbed request: %w", err)
	}
	t2 := time.Now()
	rng := rand.New(rand.NewSource(seed))
	asg, err := fedsched.FedLBAP.Schedule(req, rng)
	if err != nil {
		return nil, fmt.Errorf("fed-lbap: %w", err)
	}
	t3 := time.Now()
	users := len(tb.Profiles)
	sizes := make([]int, users)
	assigned := 0
	for j, sh := range asg.Shards {
		sizes[j] = sh * train.Len() / req.TotalShards
		assigned += sizes[j]
	}
	for j := 0; assigned < train.Len(); j = (j + 1) % users {
		sizes[j]++
		assigned++
	}
	part := data.IIDSizes(train, sizes, rng)
	clients, err := tb.Clients(train, part)
	if err != nil {
		return nil, fmt.Errorf("clients: %w", err)
	}
	t4 := time.Now()
	if st != nil {
		*st = tbSetupTimes{generate: t1.Sub(t0), profile: t2.Sub(t1), schedule: t3.Sub(t2), partition: t4.Sub(t3)}
	}
	in := &tbInputs{train: train, test: test, clients: clients}
	for _, n := range sizes {
		in.batches += (n + 19) / 20
	}
	return in, nil
}

// tbPass is one set-up-and-run of the workload.
type tbPass struct {
	setups   []float64 // seconds per setupTestbed
	prep     float64   // seconds from fl.Run's call to its first Cancel poll
	rssMB    float64   // peak resident set of this pass
	roundsMs []float64 // wall time per round
	cpuMs    []float64 // process CPU time per round (traced only)
	samples  int       // training samples over all rounds
	digest   uint64
	finalAcc float64
	hist     *fl.History // traced passes only
	in       *tbInputs   // traced passes only
}

// runTestbedPass sets up and runs one fl.Run. fl.Run's own preparation
// before round 0 is timed up to the engine's first Cancel poll. Rounds
// are timed between consecutive Cancel polls (the engine polls once
// before each round); the last round ends when fl.Run returns.
func runTestbedPass(seed int64, rounds int, traced bool) (*tbPass, error) {
	p := &tbPass{}
	var in *tbInputs
	for k := 0; k < tbSetups; k++ {
		if k == tbSetups-1 { // the peak is that of the set-up that runs
			in = nil
			if err := resetPeakRSS(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if in, err = setupTestbed(seed, nil); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
	}

	var polls []time.Time
	var cpus []float64
	cancel := func() bool {
		polls = append(polls, time.Now())
		if traced {
			cpus = append(cpus, cpuMs())
		}
		return false
	}
	cfg := fl.Config{
		Arch: tbArch, Rounds: rounds, BatchSize: 20, LR: 0.02, Momentum: 0.9,
		Seed: seed, Precision: nn.F64, EvalEvery: 1, Workers: 2, Cancel: cancel,
	}
	t0 := time.Now()
	hist, err := fl.Run(cfg, in.clients, in.test)
	end := time.Now()
	endCPU := 0.0
	if traced {
		endCPU = cpuMs()
	}
	if err != nil {
		return nil, fmt.Errorf("fl.Run: %w", err)
	}
	if p.rssMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	if len(polls) != rounds || len(hist.Rounds) != rounds {
		return nil, fmt.Errorf("fl.Run: %d polls and %d rounds, want %d", len(polls), len(hist.Rounds), rounds)
	}
	p.prep = polls[0].Sub(t0).Seconds()
	polls = append(polls, end)
	cpus = append(cpus, endCPU)
	for i := 0; i < rounds; i++ {
		p.roundsMs = append(p.roundsMs, ms(polls[i+1].Sub(polls[i])))
		if traced {
			p.cpuMs = append(p.cpuMs, cpus[i+1]-cpus[i])
		}
	}
	d := newDigest()
	for _, rs := range hist.Rounds {
		d.f64(rs.TrainLoss)
		d.f64(rs.Makespan)
		d.f64(rs.Accuracy)
		for _, cr := range rs.Clients {
			p.samples += cr.Samples
		}
	}
	d.f64(hist.FinalAccuracy)
	p.digest = d.sum()
	p.finalAcc = hist.FinalAccuracy
	if traced { // the layer report needs the model and inputs; else let the pass go
		p.hist, p.in = hist, in
	}
	return p, nil
}

// runTestbedPhase runs passes as runPasses does and checks their
// outputs.
func runTestbedPhase(o opts, r *report, budget float64, minRounds, nPasses int, traced bool) ([]*tbPass, error) {
	passes, err := runPasses(budget, minRounds, nPasses, tbRounds, func() (*tbPass, error) {
		return runTestbedPass(o.seed, tbRounds, traced)
	})
	if err != nil {
		return nil, err
	}
	for i, p := range passes {
		r.check(tbRounds, p.digest == passes[0].digest, "testbed-train pass %d: history digest %016x, first pass %016x", i, p.digest, passes[0].digest)
		r.expect(tbRounds, p.finalAcc >= tbAccFloor, "testbed-train pass %d: final accuracy %.4f below floor %.2f", i, p.finalAcc, tbAccFloor)
	}
	if o.seed == defaultSeed {
		r.expect(len(passes)*tbRounds, passes[0].digest == expectedTestbedDigest, "testbed-train: history digest %016x, recorded %016x for seed %d", passes[0].digest, expectedTestbedDigest, defaultSeed)
	}
	return passes, nil
}

func runTestbed(o opts, r *report) error {
	if !o.trace {
		passes, err := runTestbedPhase(o, r, o.seconds, tbMinRounds, 0, false)
		if err != nil {
			return err
		}
		var preps, rss []float64
		samples := 0
		for _, p := range passes {
			preps = append(preps, p.prep)
			rss = append(rss, p.rssMB)
			samples += p.samples
		}
		rounds := flatten(passes, tbRoundsMs)
		fmt.Printf("# testbed-train: %d passes of %d rounds, history digest %016x, per-pass p50 ms %s\n", len(passes), tbRounds, passes[0].digest, passMedians(passes, tbRoundsMs))
		setups := flatten(passes, func(p *tbPass) []float64 { return p.setups })
		r.set("setup_s", median(setups)+median(preps), "s", "lower",
			fmt.Sprintf("median of n=%d set-ups (datasets, testbed profile, Fed-LBAP, partition, clients) + median of n=%d fl.Run preparations up to round 0", len(setups), len(preps)))
		reportLatency(r, "testbed-train", rounds, "rounds")
		reportRSS(r, rss)
		r.set("train_samples_per_s", float64(samples)/(sum(rounds)/1000), "samples/s", "higher",
			fmt.Sprintf("%d samples over %d rounds", samples, len(rounds)))
		return nil
	}

	// Traced run: an untraced phase, then the same number of passes with
	// the per-round CPU clock on; outputs must match.
	plain, err := runTestbedPhase(o, r, o.seconds*0.4, 0, 0, false)
	if err != nil {
		return err
	}
	traced, err := runTestbedPhase(o, r, 0, 0, len(plain), true)
	if err != nil {
		return err
	}
	r.expect(len(traced)*tbRounds, plain[0].digest == traced[0].digest, "testbed-train: traced digest %016x, untraced %016x", traced[0].digest, plain[0].digest)
	reportTestbedLayers(r, traced)
	reportOverhead(r, flatten(plain, tbRoundsMs), flatten(traced, tbRoundsMs), "rounds")
	return nil
}

func tbRoundsMs(p *tbPass) []float64 { return p.roundsMs }

// cpuMs is the process's user+system CPU time so far.
func cpuMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}
