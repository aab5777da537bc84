package main

import (
	"reflect"
	"testing"

	"fedsched/internal/fl"
	"fedsched/internal/sample"
)

// smallPop keeps the decorator tests fast while leaving the cooldown
// busy: the fault plan fails ~20% of each cohort.
var smallPop = popSpec{n: 100_000, cohort: 320, quorum: 256, minPart: 128, shards: 2000, rounds: 8}

func runRounds(t *testing.T, cfg fl.PopulationConfig, rounds int) []fl.PopulationRound {
	t.Helper()
	runner, err := fl.NewPopulationRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []fl.PopulationRound
	for i := 0; i < rounds; i++ {
		pr, err := runner.Round(i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pr)
	}
	return out
}

// TestDecoratorsKeepRounds checks that timing the sampler and the
// scheduler leaves every round unchanged.
func TestDecoratorsKeepRounds(t *testing.T) {
	plain, err := popConfig(7, smallPop, nil)
	if err != nil {
		t.Fatal(err)
	}
	timers := &popTimers{}
	wrapped, err := popConfig(7, smallPop, timers)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapped.Sampler.(sample.FailureReporter); !ok {
		t.Fatal("wrapped sampler hides sample.FailureReporter")
	}
	want := runRounds(t, plain, smallPop.rounds)
	got := runRounds(t, wrapped, smallPop.rounds)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wrapped rounds differ:\n got %+v\nwant %+v", got, want)
	}
	if len(timers.cohort) != smallPop.rounds || len(timers.solve) != smallPop.rounds {
		t.Errorf("timed %d cohorts and %d solves over %d rounds", len(timers.cohort), len(timers.solve), smallPop.rounds)
	}
}

// hidingSampler embeds the Sampler interface only, so it drops every
// other method of the sampler it wraps.
type hidingSampler struct{ sample.Sampler }

// TestHidingDecoratorChangesRounds shows TestDecoratorsKeepRounds can
// fail: a wrapper that does not forward sample.FailureReporter switches
// the cooldown off, and the engine then draws other clients.
func TestHidingDecoratorChangesRounds(t *testing.T) {
	plain, err := popConfig(7, smallPop, nil)
	if err != nil {
		t.Fatal(err)
	}
	hiding, err := popConfig(7, smallPop, nil)
	if err != nil {
		t.Fatal(err)
	}
	hiding.Sampler = hidingSampler{hiding.Sampler}
	if reflect.DeepEqual(runRounds(t, hiding, smallPop.rounds), runRounds(t, plain, smallPop.rounds)) {
		t.Fatal("a wrapper hiding FailureReporter left the rounds unchanged; the decorator test cannot catch it")
	}
}
