package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"fedsched/internal/serve"
)

// arrival is one scheduled job submission.
type arrival struct {
	at    time.Duration // offset from the start of the load
	class int
}

// arrivals draws an open-loop schedule from seed: n = rate·window jobs
// (at least minJobs) with exponential gaps at rate jobs/s. The gaps are
// stratified: they are the n quantiles of the exponential distribution
// in an order drawn from seed, so every seed offers the same load and
// the same gap distribution, and seeds differ only in how the gaps
// cluster. Classes come in shuffled blocks holding each class once. The
// schedule is computed before the load starts, so a slow system cannot
// thin it.
func arrivals(seed int64, rate float64, window time.Duration, minJobs, classes int) []arrival {
	rng := rand.New(rand.NewSource(seed*7919 + 5))
	n := int(math.Round(rate * window.Seconds()))
	if n < minJobs {
		n = minJobs
	}
	q := rng.Perm(n)
	out := make([]arrival, n)
	var block []int
	t := 0.0
	for i := range out {
		t += -math.Log((float64(q[i])+0.5)/float64(n)) / rate
		if len(block) == 0 {
			block = rng.Perm(classes)
		}
		out[i] = arrival{at: time.Duration(t * float64(time.Second)), class: block[0]}
		block = block[1:]
	}
	return out
}

// jobObs is what the load generator saw of one job.
type jobObs struct {
	arrival
	id        string
	scheduled time.Time // when the job was due to be sent
	sent      time.Time
	accepted  time.Time // submit response received
	rejected  bool      // 429 or another refusal
	running   time.Time // first observation of the running state (zero if never seen)
	done      time.Time // first observation of a terminal state
	status    serve.JobStatus
}

// latency is the job's time from its scheduled arrival to the first
// observation of its terminal state.
func (j *jobObs) latency() time.Duration { return j.done.Sub(j.scheduled) }

// loadgen drives a job API with an open-loop schedule while a watcher
// polls every in-flight job concurrently. Both share one HTTP client,
// whose transport bounds the connections.
type loadgen struct {
	client *http.Client
	base   string // e.g. http://127.0.0.1:port
	bodies [][]byte
	poll   time.Duration
	// timeout bounds the whole load, drain included.
	timeout time.Duration
	// onPoll, when set, sees every status the watcher observes (on the
	// watcher goroutine).
	onPoll func(j *jobObs, st serve.JobStatus)
	// beforeSend, when set, runs before each submission (tests stall the
	// generator through it).
	beforeSend func(i int)
}

// loadResult is the outcome of one load.
type loadResult struct {
	jobs          []*jobObs
	genLagMax     time.Duration
	submitMs      []float64
	statusMs      []float64
	queueDepthMax int
}

func terminal(state string) bool {
	return state == serve.StateCompleted || state == serve.StateFailed || state == serve.StateCancelled
}

// run submits each arrival at its scheduled time and returns once every
// accepted job has been seen in a terminal state.
func (g *loadgen) run(arr []arrival) (*loadResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), g.timeout)
	defer cancel()
	res := &loadResult{jobs: make([]*jobObs, len(arr))}

	var mu sync.Mutex // guards inflight, genDone and res.submitMs
	var inflight []*jobObs
	genDone := false
	var genErr error

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { mu.Lock(); genDone = true; mu.Unlock() }()
		for i, a := range arr {
			j := &jobObs{arrival: a, scheduled: start.Add(a.at)}
			res.jobs[i] = j
			if g.beforeSend != nil {
				g.beforeSend(i)
			}
			if d := time.Until(j.scheduled); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					genErr = ctx.Err()
					return
				}
			}
			j.sent = time.Now()
			if lag := j.sent.Sub(j.scheduled); lag > res.genLagMax {
				res.genLagMax = lag
			}
			st, code, err := g.do(ctx, http.MethodPost, "/jobs", g.bodies[a.class])
			j.accepted = time.Now()
			if err != nil {
				genErr = err
				return
			}
			mu.Lock()
			res.submitMs = append(res.submitMs, ms(j.accepted.Sub(j.sent)))
			if code != http.StatusAccepted {
				j.rejected = true
			} else {
				j.id = st.ID
				inflight = append(inflight, j)
			}
			mu.Unlock()
		}
	}()

	// The watcher runs alongside the generator, so a job's completion is
	// seen within one poll interval of happening, whatever the generator
	// is doing.
	var watchErr error
	tick := time.NewTicker(g.poll)
	defer tick.Stop()
	for {
		mu.Lock()
		batch := append([]*jobObs(nil), inflight...)
		finished := genDone && len(inflight) == 0
		mu.Unlock()
		if finished {
			break
		}
		queued := 0
		var still []*jobObs
		for _, j := range batch {
			t0 := time.Now()
			st, code, err := g.do(ctx, http.MethodGet, "/jobs/"+j.id, nil)
			now := time.Now()
			if err != nil {
				watchErr = err
				break
			}
			if code != http.StatusOK {
				watchErr = fmt.Errorf("status of %s: HTTP %d", j.id, code)
				break
			}
			res.statusMs = append(res.statusMs, ms(now.Sub(t0)))
			if g.onPoll != nil {
				g.onPoll(j, st)
			}
			switch {
			case terminal(st.State):
				j.done, j.status = now, st
				if j.running.IsZero() {
					j.running = now
				}
			case st.State == serve.StateRunning:
				if j.running.IsZero() {
					j.running = now
				}
				still = append(still, j)
			default:
				queued++
				still = append(still, j)
			}
		}
		if watchErr != nil {
			break
		}
		if queued > res.queueDepthMax {
			res.queueDepthMax = queued
		}
		mu.Lock()
		// Keep jobs the generator added while this sweep ran.
		inflight = append(still, inflight[len(batch):]...)
		mu.Unlock()
		select {
		case <-tick.C:
		case <-ctx.Done():
			watchErr = fmt.Errorf("load did not drain: %w", ctx.Err())
		}
		if watchErr != nil {
			break
		}
	}
	cancel()
	wg.Wait()
	g.client.CloseIdleConnections()
	if genErr != nil && watchErr == nil {
		watchErr = genErr
	}
	return res, watchErr
}

// do performs one API call and decodes a JobStatus from a 2xx reply.
func (g *loadgen) do(ctx context.Context, method, path string, body []byte) (serve.JobStatus, int, error) {
	var st serve.JobStatus
	req, err := http.NewRequestWithContext(ctx, method, g.base+path, bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, &st); err != nil {
			return st, resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return st, resp.StatusCode, nil
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}
