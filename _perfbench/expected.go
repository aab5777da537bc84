package main

import (
	"hash"
	"hash/fnv"
	"math"
)

// Outputs recorded for defaultSeed; a run at that seed must reproduce
// them bit for bit.
const (
	expectedTestbedDigest    uint64 = 0x38310cf2016d72c1
	expectedPopulationDigest uint64 = 0xe3f1b408f7373114
)

// expectedJob is a serve-mix job class's recorded result for defaultSeed.
var expectedJob = map[string]jobResult{
	"sync":         {FinalAccuracy: 0.11666666666666667},
	"sync-tb2-f32": {FinalAccuracy: 0.16666666666666666, TotalSeconds: 0.1331918819348839},
	"async":        {FinalAccuracy: 0.26666666666666666, TotalSeconds: 0.050864941176470585},
	"gossip":       {FinalAccuracy: 0.175},
}

// digest hashes values by their bit patterns.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	d.h.Write(b[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) int(v int)     { d.u64(uint64(int64(v))) }
func (d *digest) sum() uint64   { return d.h.Sum64() }
