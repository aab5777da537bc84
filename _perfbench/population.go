package main

import (
	"fmt"
	"math/rand"
	"time"

	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/fl"
	"fedsched/internal/nn"
	"fedsched/internal/sample"
	"fedsched/internal/sched"
)

// population is fl.PopulationRunner over a 10⁶-client fleet: a uniform
// sampler with 25% over-selection wrapped in a cooldown, a fixed fault
// plan, a quorum and a participation floor, SparseFedLBAP, two workers.
const (
	popN         = 1_000_000
	popQuorum    = 2048
	popCohort    = popQuorum + popQuorum/4 // 2560
	popMinPart   = 1024
	popShards    = 20000
	popFaults    = "crash=0.1,battery=0.02,flap=0.05,corrupt=0.02,degrade=0.2,slow=4"
	popRounds    = 40  // rounds per pass (one set-up)
	popMinRounds = 100 // p90 with ten rounds beyond it
	// popSetups is how many times a pass times its set-up. A set-up
	// takes about 10 ms, short next to the host's timer noise.
	popSetups = 5
)

// popSpec sizes a population pass; tests shrink it.
type popSpec struct {
	n, cohort, quorum, minPart, shards, rounds int
}

var popDefault = popSpec{popN, popCohort, popQuorum, popMinPart, popShards, popRounds}

// popTimers holds the decorators' clocks for a traced pass.
type popTimers struct {
	cohort, solve []float64 // ms per call
	users, shards int
}

// reportingSampler is a sampler that takes failure reports, as the
// workload's sample.Cooldown does.
type reportingSampler interface {
	sample.Sampler
	sample.FailureReporter
}

// timedSampler times Cohort calls on the wrapped sampler. The engines
// type-assert sample.FailureReporter on the sampler they are given; a
// wrapper that hid it would switch off the cooldown and change which
// clients are drawn, so this one forwards it.
type timedSampler struct {
	reportingSampler
	t *popTimers
}

func (s timedSampler) Cohort(round int, dst []int) []int {
	t0 := time.Now()
	dst = s.reportingSampler.Cohort(round, dst)
	s.t.cohort = append(s.t.cohort, ms(time.Since(t0)))
	return dst
}

// timedScheduler times Schedule calls and records the instance size.
type timedScheduler struct {
	inner sched.Scheduler
	t     *popTimers
}

func (s timedScheduler) Name() string { return s.inner.Name() }

func (s timedScheduler) Schedule(req *sched.Request, rng *rand.Rand) (*sched.Assignment, error) {
	t0 := time.Now()
	a, err := s.inner.Schedule(req, rng)
	s.t.solve = append(s.t.solve, ms(time.Since(t0)))
	s.t.users, s.t.shards = len(req.Users), req.TotalShards
	return a, err
}

// popConfig builds the workload's runner configuration. With t non-nil
// the sampler and scheduler are wrapped in timing decorators.
func popConfig(seed int64, sp popSpec, t *popTimers) (fl.PopulationConfig, error) {
	plan, err := fault.ParseSpec(popFaults, seed*0x9e3779b9+97)
	if err != nil {
		return fl.PopulationConfig{}, err
	}
	cooldown := sample.NewCooldown(sample.NewUniform(sp.n, sp.cohort, seed), 1)
	var s sample.Sampler = cooldown
	var sc sched.Scheduler = sched.SparseFedLBAP{}
	if t != nil {
		s = timedSampler{cooldown, t}
		sc = timedScheduler{sc, t}
	}
	return fl.PopulationConfig{
		Arch:            nn.LeNetSmall(1, 16, 16, 10),
		Population:      device.NewPopulation(sp.n, seed),
		Sampler:         s,
		Scheduler:       sc,
		TotalShards:     sp.shards,
		Workers:         2,
		Faults:          plan,
		Quorum:          sp.quorum,
		MinParticipants: sp.minPart,
	}, nil
}

// popPass is one set-up-and-run of the population workload.
type popPass struct {
	setups   []float64 // seconds; the last set-up is the one that runs
	rssMB    float64
	roundsMs []float64
	rounds   []fl.PopulationRound
	digest   uint64
	timers   *popTimers
}

// runPopulationPass builds a fresh runner (the cooldown carries state
// across rounds, so every pass starts from set-up) and times each Round.
func runPopulationPass(seed int64, sp popSpec, traced bool) (*popPass, error) {
	p := &popPass{}
	if traced {
		p.timers = &popTimers{}
	}
	var runner *fl.PopulationRunner
	for k := 0; k < popSetups; k++ {
		if k == popSetups-1 { // the peak is that of the set-up that runs
			runner = nil
			if err := resetPeakRSS(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		cfg, err := popConfig(seed, sp, p.timers)
		if err != nil {
			return nil, err
		}
		if runner, err = fl.NewPopulationRunner(cfg); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
	}
	for i := 0; i < sp.rounds; i++ {
		t := time.Now()
		pr, err := runner.Round(i)
		p.roundsMs = append(p.roundsMs, ms(time.Since(t)))
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		p.rounds = append(p.rounds, pr)
	}
	p.digest = popDigest(p.rounds)
	var err error
	if p.rssMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	return p, nil
}

// popDigest hashes each round's outcome.
func popDigest(rounds []fl.PopulationRound) uint64 {
	d := newDigest()
	for _, pr := range rounds {
		d.int(pr.Selected)
		d.int(pr.Participants)
		d.int(pr.Faulted)
		d.int(pr.Late)
		d.int(pr.Straggler)
		d.f64(pr.MakespanS)
	}
	return d.sum()
}

// runPopulationPhase runs passes as runPasses does and checks their
// outputs.
func runPopulationPhase(o opts, r *report, budget float64, minRounds, nPasses int, traced bool) ([]*popPass, error) {
	passes, err := runPasses(budget, minRounds, nPasses, popRounds, func() (*popPass, error) {
		return runPopulationPass(o.seed, popDefault, traced)
	})
	if err != nil {
		return nil, err
	}
	for i, p := range passes {
		r.check(popRounds, p.digest == passes[0].digest, "population pass %d: round digest %016x, first pass %016x", i, p.digest, passes[0].digest)
		for _, pr := range p.rounds {
			r.expect(1, !pr.Failed, "population pass %d: round %d failed (%d participants)", i, pr.Round, pr.Participants)
		}
	}
	if o.seed == defaultSeed {
		r.expect(len(passes)*popRounds, passes[0].digest == expectedPopulationDigest,
			"population: round digest %016x, recorded %016x for seed %d", passes[0].digest, expectedPopulationDigest, defaultSeed)
	}
	return passes, nil
}

func runPopulation(o opts, r *report) error {
	if !o.trace {
		passes, err := runPopulationPhase(o, r, o.seconds, popMinRounds, 0, false)
		if err != nil {
			return err
		}
		var rss []float64
		samples := 0
		for _, p := range passes {
			rss = append(rss, p.rssMB)
			for _, pr := range p.rounds {
				samples += pr.Samples
			}
		}
		rounds := flatten(passes, popRoundsMs)
		fmt.Printf("# population: %d passes of %d rounds, round digest %016x, per-pass p50 ms %s\n", len(passes), popRounds, passes[0].digest, passMedians(passes, popRoundsMs))
		reportSetup(r, flatten(passes, func(p *popPass) []float64 { return p.setups }), "set-up: population, sampler, fault plan, runner (archetype profiles)")
		reportLatency(r, "population", rounds, "rounds")
		reportRSS(r, rss)
		r.set("train_samples_per_s", float64(samples)/(sum(rounds)/1000), "samples/s", "higher",
			fmt.Sprintf("%d simulated samples over %d rounds", samples, len(rounds)))
		return nil
	}

	plain, err := runPopulationPhase(o, r, o.seconds*0.4, 0, 0, false)
	if err != nil {
		return err
	}
	traced, err := runPopulationPhase(o, r, 0, 0, len(plain), true)
	if err != nil {
		return err
	}
	r.expect(len(traced)*popRounds, plain[0].digest == traced[0].digest, "population: traced digest %016x, untraced %016x", traced[0].digest, plain[0].digest)

	reportPopulationLayers(r, traced)
	reportOverhead(r, flatten(plain, popRoundsMs), flatten(traced, popRoundsMs), "rounds")
	return nil
}

func popRoundsMs(p *popPass) []float64 { return p.roundsMs }
