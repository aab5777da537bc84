package sample

import "sort"

// FailureReporter is implemented by samplers that track per-client
// failure state. After each round's join the engines report every
// scheduled cohort member's outcome — which outcomes count as failures
// is the round-closing rule of DESIGN §13. Reports arrive in
// deterministic cohort order on the engine goroutine.
type FailureReporter interface {
	ReportFailure(client, round int)
	ReportSuccess(client int)
}

// CooldownEntry is one client's failure-backoff state, for
// Cooldown.Snapshot/Restore (checkpoint/resume).
type CooldownEntry struct {
	Client int `json:"client"`
	// Strikes counts consecutive failed rounds.
	Strikes int `json:"strikes"`
	// Until is the first round the client is eligible again.
	Until int `json:"until"`
}

// cooldownState is the live per-client record.
type cooldownState struct{ strikes, until int }

// Cooldown wraps a base Sampler with per-client retry backoff: a client
// that fails a round is skipped for BaseRounds rounds, doubling per
// consecutive failure up to MaxRounds — the production-FL pattern of not
// hammering a phone that keeps dying mid-round. A success clears the
// record, so state stays O(recently failed), not O(population).
//
// Filtering happens inside the base cohort: the wrapper never redraws, so
// a fully-failed cohort shrinks rather than being replaced (callers
// over-select to compensate — see fl.Config.Quorum).
type Cooldown struct {
	// Base draws the raw cohorts.
	Base Sampler
	// BaseRounds is the first-failure cooldown length in rounds
	// (default 1), doubling per consecutive failure.
	BaseRounds int
	// MaxRounds caps the backoff (default 32).
	MaxRounds int

	state map[int]cooldownState
}

// NewCooldown wraps base with failure backoff starting at baseRounds
// (≤ 0 means 1) and capped at 32 rounds.
func NewCooldown(base Sampler, baseRounds int) *Cooldown {
	if baseRounds <= 0 {
		baseRounds = 1
	}
	return &Cooldown{Base: base, BaseRounds: baseRounds, MaxRounds: 32, state: make(map[int]cooldownState)}
}

// Name implements Sampler.
func (c *Cooldown) Name() string { return c.Base.Name() + "+cooldown" }

// Population implements Sampler.
func (c *Cooldown) Population() int { return c.Base.Population() }

// CohortSize implements Sampler.
func (c *Cooldown) CohortSize() int { return c.Base.CohortSize() }

// Cohort implements Sampler: the base cohort with clients on cooldown
// filtered out, in place. Map lookups only (no ordering sensitivity),
// allocation-free beyond the base draw, deterministic given the failure
// history — which the engines feed back in deterministic order.
//
// fedlint:hotpath
// fedlint:deterministic
func (c *Cooldown) Cohort(round int, dst []int) []int {
	sel := c.Base.Cohort(round, dst)
	if len(c.state) == 0 {
		return sel
	}
	n := 0
	for _, id := range sel {
		if st, ok := c.state[id]; ok && round < st.until {
			continue
		}
		sel[n] = id
		n++
	}
	return sel[:n]
}

// maxBackoffShift bounds the strike exponent so the doubling below never
// overflows before the MaxRounds cap applies.
const maxBackoffShift = 30

// ReportFailure implements FailureReporter: the client sits out
// BaseRounds·2^(strikes−1) rounds (capped at MaxRounds) starting next
// round.
func (c *Cooldown) ReportFailure(client, round int) {
	if c.state == nil {
		c.state = make(map[int]cooldownState)
	}
	st := c.state[client]
	st.strikes++
	base, limit := c.BaseRounds, c.MaxRounds
	if base <= 0 {
		base = 1
	}
	if limit <= 0 {
		limit = 32
	}
	d := limit
	if st.strikes-1 < maxBackoffShift {
		if b := base << (st.strikes - 1); b < limit {
			d = b
		}
	}
	st.until = round + 1 + d
	c.state[client] = st
}

// ReportSuccess implements FailureReporter: a delivered update clears the
// client's backoff record.
func (c *Cooldown) ReportSuccess(client int) {
	delete(c.state, client)
}

// OnCooldown reports whether the client would be filtered from a cohort
// drawn at round.
func (c *Cooldown) OnCooldown(client, round int) bool {
	st, ok := c.state[client]
	return ok && round < st.until
}

// Snapshot returns the backoff state sorted by client id, for
// checkpointing. The map iterates only to collect keys, which are then
// sorted — the output is deterministic.
func (c *Cooldown) Snapshot() []CooldownEntry {
	if len(c.state) == 0 {
		return nil
	}
	ids := make([]int, 0, len(c.state))
	for id := range c.state {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]CooldownEntry, len(ids))
	for i, id := range ids {
		st := c.state[id]
		out[i] = CooldownEntry{Client: id, Strikes: st.strikes, Until: st.until}
	}
	return out
}

// Restore replaces the backoff state with a Snapshot.
func (c *Cooldown) Restore(entries []CooldownEntry) {
	c.state = make(map[int]cooldownState, len(entries))
	for _, e := range entries {
		c.state[e.Client] = cooldownState{strikes: e.Strikes, until: e.Until}
	}
}
