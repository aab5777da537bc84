package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"fedsched/internal/fl"
	"fedsched/internal/serve"
	"fedsched/internal/trace"
)

// serve-mix is an in-process fedserve daemon (MaxRunning 2, LaneBudget
// 2) behind its Handler on a loopback listener, fed an open-loop
// arrival schedule of four job classes over at most two HTTP
// connections.
const (
	// smRate is the offered load in jobs/s: 25% of the 16.2 jobs/s
	// capacity that --calibrate measured on the parent commit (see
	// README.md), frozen so that later changes are judged at one load.
	smRate = 4.05
	// smMinJobs keeps the p75 tail backed by ten jobs beyond it.
	smMinJobs = 40
	// smPoll is the watcher's polling interval: the resolution of every
	// observed state change.
	smPoll  = 10 * time.Millisecond
	smConns = 2
	// smSetups fresh daemons are timed per untraced run, about 2 s, after
	// smWarmups untimed ones: the process's first jobs run slower while
	// its heap grows.
	smSetups  = 31
	smWarmups = 2
	// smSetupWait bounds how long the set-up probe waits for a log line
	// before it asks for its job's status anyway.
	smSetupWait = 100 * time.Millisecond
)

// jobClass is one kind of job in the mix. Every job of a class in a run
// has the same config, so all must produce the same result.
type jobClass struct {
	name   string
	cfg    serve.JobConfig
	target int // rounds_done on completion
}

// jobResult is what a completed job must reproduce.
type jobResult struct {
	FinalAccuracy float64
	TotalSeconds  float64
}

// jobClasses derives the mix's job configs from the workload seed.
func jobClasses(seed int64) []jobClass {
	base := func(engine string, k int64) serve.JobConfig {
		return serve.JobConfig{Engine: engine, Clients: 4, Samples: 60, TestSamples: 60, Seed: seed*16 + k, Workers: 2}
	}
	sync := base("sync", 0)
	sync.Rounds = 2
	tb2 := base("sync", 1)
	tb2.Testbed, tb2.Clients, tb2.Precision, tb2.Rounds = 2, 0, "f32", 2
	tb2.Faults, tb2.MinParticipants = "crash=0.1", 3
	async := base("async", 2)
	async.MaxUpdates = 4
	gossip := base("gossip", 3)
	gossip.Rounds = 2
	return []jobClass{
		{"sync", sync, 2},
		{"sync-tb2-f32", tb2, 2},
		{"async", async, 4},
		{"gossip", gossip, 2},
	}
}

// daemon is a running serve.Server on a loopback listener.
type daemon struct {
	srv  *serve.Server
	http *http.Server
	base string
	dir  string
	done chan struct{}
}

// startDaemon starts a daemon whose operational log lines go to logf (nil
// drops them).
func startDaemon(dir string, queueCap int, logf func(string, ...any)) (*daemon, error) {
	srv, err := serve.New(serve.Options{Dir: dir, MaxRunning: 2, LaneBudget: 2, QueueCap: queueCap, Logf: logf})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), dir: dir, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.http.Serve(ln)
	}()
	return d, nil
}

// stop closes the listener and connections, waits for the serving
// goroutine, then stops the job runner.
func (d *daemon) stop() {
	d.http.Close()
	<-d.done
	d.srv.Close()
}

func (d *daemon) jobDir(id string) string { return filepath.Join(d.dir, "jobs", id) }

// bodies encodes each class's config as a submission body.
func bodies(classes []jobClass) ([][]byte, error) {
	out := make([][]byte, len(classes))
	for i, c := range classes {
		b, err := json.Marshal(c.cfg)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// smSetup starts a fresh daemon and runs one job of class c through it:
// the time from serve.New to the job's observed completion. The probe
// does not poll. It asks for the job's status when the daemon logs
// through Options.Logf, which it does as a job is submitted, starts and
// ends (after its state is set), and after smSetupWait without a line.
func smSetup(dir string, c jobClass, body []byte) (*daemon, float64, error) {
	wake := make(chan struct{}, 1)
	logf := func(string, ...any) {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	t0 := time.Now()
	d, err := startDaemon(dir, 0, logf)
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	g := &loadgen{client: newClient(1), base: d.base}
	defer g.client.CloseIdleConnections()
	st, code, err := g.do(ctx, http.MethodPost, "/jobs", body)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("probe job refused: HTTP %d", code)
	}
	for err == nil && !terminal(st.State) {
		select {
		case <-wake:
		case <-time.After(smSetupWait):
		}
		var code int
		if st, code, err = g.do(ctx, http.MethodGet, "/jobs/"+st.ID, nil); err == nil && code != http.StatusOK {
			err = fmt.Errorf("probe status: HTTP %d", code)
		}
	}
	s := time.Since(t0).Seconds()
	if err == nil && (st.State != serve.StateCompleted || st.RoundsDone != c.target) {
		err = fmt.Errorf("probe job ended %s after %d rounds, want completed after %d: %s", st.State, st.RoundsDone, c.target, st.Error)
	}
	if err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("serve-mix set-up: %w", err)
	}
	return d, s, nil
}

// smPhase is one open-loop load against one daemon.
type smPhase struct {
	setups []float64
	res    *loadResult
	rssMB  float64 // peak resident set during the load
	// traced only: checkpoint replays of live resume.bin snapshots.
	ckBytes, ckSave, ckLoad []float64
	// traced only: per completed job, its streamed trace.
	traceBytes, traceEvents, traceEncUsPerK []float64
}

// runServePhase sets up warmups untimed and then setups timed fresh
// daemons one after another, then drives the arrival schedule through
// the last one.
func runServePhase(o opts, r *report, arr []arrival, traced bool, tag string, warmups, setups int) (*smPhase, error) {
	classes := jobClasses(o.seed)
	body, err := bodies(classes)
	if err != nil {
		return nil, err
	}
	ph := &smPhase{}
	var d *daemon
	for i := 0; i < warmups+setups; i++ {
		if d != nil {
			d.stop()
		}
		var s float64
		d, s, err = smSetup(filepath.Join(o.stateDir, fmt.Sprintf("daemon-%s-%d", tag, i)), classes[0], body[0])
		if err != nil {
			return nil, err
		}
		if i >= warmups {
			ph.setups = append(ph.setups, s)
		}
	}
	defer d.stop()

	g := &loadgen{client: newClient(smConns), base: d.base, bodies: body, poll: smPoll, timeout: 150 * time.Second}
	if traced {
		replayed := map[string]bool{}
		g.onPoll = func(j *jobObs, st serve.JobStatus) {
			// Replay a live resume snapshot once per sync job: it is
			// replaced by rename, so a read sees a whole file.
			if st.State != serve.StateRunning || st.RoundsDone < 1 || classes[j.class].cfg.Engine != "sync" || replayed[j.id] {
				return
			}
			raw, err := os.ReadFile(filepath.Join(d.jobDir(j.id), "resume.bin"))
			if err != nil || len(raw) < 8 {
				return // finished between the poll and the read
			}
			replayed[j.id] = true
			b, save, load, err := replayCheckpoint(raw[8:])
			if err != nil {
				r.expect(0, false, "serve-mix: %s resume.bin: %v", j.id, err)
				return
			}
			ph.ckBytes = append(ph.ckBytes, b)
			ph.ckSave = append(ph.ckSave, save)
			ph.ckLoad = append(ph.ckLoad, load)
		}
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	ph.res, err = g.run(arr)
	if err != nil {
		return nil, err
	}
	if ph.rssMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	checkJobs(o, r, classes, ph.res.jobs)
	if traced {
		for _, j := range ph.res.jobs {
			if j.rejected || j.status.State != serve.StateCompleted {
				continue
			}
			b, ev, us, err := reencodeTrace(filepath.Join(d.jobDir(j.id), "trace.jsonl"))
			if err != nil {
				return nil, err
			}
			ph.traceBytes = append(ph.traceBytes, b)
			ph.traceEvents = append(ph.traceEvents, ev)
			ph.traceEncUsPerK = append(ph.traceEncUsPerK, us)
		}
	}
	return ph, nil
}

// checkJobs counts every scheduled job as an operation and fails those
// refused, failed, or completed with a result other than their class's:
// the recorded one at the default seed, else the class's first.
func checkJobs(o opts, r *report, classes []jobClass, jobs []*jobObs) {
	want := map[int]jobResult{}
	if o.seed == defaultSeed {
		for i, c := range classes {
			want[i] = expectedJob[c.name]
		}
	}
	for _, j := range jobs {
		c := classes[j.class]
		got := jobResult{j.status.FinalAccuracy, j.status.TotalSeconds}
		switch {
		case j.rejected:
			r.check(1, false, "serve-mix: %s job refused", c.name)
		case j.status.State != serve.StateCompleted:
			r.check(1, false, "serve-mix: %s %s ended %s: %s", c.name, j.id, j.status.State, j.status.Error)
		case j.status.RoundsDone != c.target:
			r.check(1, false, "serve-mix: %s %s completed %d rounds, want %d", c.name, j.id, j.status.RoundsDone, c.target)
		default:
			w, ok := want[j.class]
			if !ok {
				w = got
				want[j.class] = got
			}
			r.check(1, got == w, "serve-mix: %s %s result %+v, want %+v", c.name, j.id, got, w)
		}
	}
}

// replayCheckpoint decodes and re-encodes an fl.Checkpoint, timing each.
func replayCheckpoint(raw []byte) (size, saveUs, loadUs float64, err error) {
	t0 := time.Now()
	ck, err := fl.LoadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		return 0, 0, 0, err
	}
	t1 := time.Now()
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		return 0, 0, 0, err
	}
	t2 := time.Now()
	if !bytes.Equal(buf.Bytes(), raw) {
		return 0, 0, 0, errors.New("re-encoded checkpoint differs from the file")
	}
	return float64(len(raw)), float64(t2.Sub(t1).Nanoseconds()) / 1e3, float64(t1.Sub(t0).Nanoseconds()) / 1e3, nil
}

// reencodeTrace decodes a job's trace.jsonl and times re-encoding it.
func reencodeTrace(path string) (size, events, usPerKEvent float64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, err
	}
	evs, err := trace.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	if len(evs) == 0 {
		return 0, 0, 0, fmt.Errorf("%s: no events", path)
	}
	t0 := time.Now()
	if err := trace.WriteJSONL(io.Discard, evs); err != nil {
		return 0, 0, 0, err
	}
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	return float64(len(raw)), float64(len(evs)), us / (float64(len(evs)) / 1000), nil
}

func runServeMix(o opts, r *report) error {
	classes := jobClasses(o.seed)
	if !o.trace {
		arr := arrivals(o.seed, smRate, time.Duration(o.seconds*0.85*float64(time.Second)), smMinJobs, len(classes))
		ph, err := runServePhase(o, r, arr, false, "plain", smWarmups, smSetups)
		if err != nil {
			return err
		}
		lat := jobLatencies(ph.res.jobs)
		fmt.Printf("# serve-mix: %d jobs offered at %.2f/s, %d rejected, generator lag max %.2f ms\n",
			len(arr), smRate, len(arr)-len(lat), ms(ph.res.genLagMax))
		reportSetup(r, ph.setups, "set-up: fresh daemon to its first sync job observed completed")
		reportLatency(r, "serve-mix", lat, "jobs, scheduled arrival to observed terminal state")
		r.set("peak_rss_mb", ph.rssMB, "MB", "lower", "VmHWM during the load, daemon and generator")
		return nil
	}

	arr := arrivals(o.seed, smRate, time.Duration(o.seconds*0.35*float64(time.Second)), 0, len(classes))
	plain, err := runServePhase(o, r, arr, false, "plain", 0, 1)
	if err != nil {
		return err
	}
	traced, err := runServePhase(o, r, arr, true, "traced", 0, 1)
	if err != nil {
		return err
	}
	for i := range plain.res.jobs {
		a, b := plain.res.jobs[i], traced.res.jobs[i]
		r.expect(1, a.status.FinalAccuracy == b.status.FinalAccuracy && a.status.TotalSeconds == b.status.TotalSeconds,
			"serve-mix: job %d differs between the traced and untraced phases", i)
	}
	if err := reportServeLayers(o, r, classes, traced); err != nil {
		return err
	}
	plainLat, tracedLat := jobLatencies(plain.res.jobs), jobLatencies(traced.res.jobs)
	reportOverhead(r, plainLat, tracedLat, "jobs")
	return nil
}

// jobLatencies are the latencies of the accepted jobs, in ms.
func jobLatencies(jobs []*jobObs) []float64 {
	var out []float64
	for _, j := range jobs {
		if !j.rejected {
			out = append(out, ms(j.latency()))
		}
	}
	return out
}

// reportServeLayers reports the serve, trace and checkpoint layers of a
// traced serve-mix phase.
func reportServeLayers(o opts, r *report, classes []jobClass, traced *smPhase) error {
	var queue []float64
	run := make([][]float64, len(classes))
	rejected := 0
	for _, j := range traced.res.jobs {
		if j.rejected {
			rejected++
			continue
		}
		queue = append(queue, ms(j.running.Sub(j.sent)))
		run[j.class] = append(run[j.class], j.done.Sub(j.running).Seconds())
	}
	res := traced.res
	sub50, sub99 := percentile(res.submitMs, 0.5), percentile(res.submitMs, 0.99)
	r.layer("serve.submit_ms_p50", sub50.Value, "ms", "POST /jobs, "+sub50.String())
	r.layer("serve.submit_ms_p99", sub99.Value, "ms", "POST /jobs, "+sub99.String())
	st50 := percentile(res.statusMs, 0.5)
	r.layer("serve.status_ms_p50", st50.Value, "ms", "GET /jobs/{id}, "+st50.String())
	q50, q90 := percentile(queue, 0.5), percentile(queue, 0.9)
	res50 := fmt.Sprintf("submit to first observed running, %v polling resolution, ", smPoll)
	r.layer("serve.queue_wait_ms_p50", q50.Value, "ms", res50+q50.String())
	r.layer("serve.queue_wait_ms_p90", q90.Value, "ms", res50+q90.String())
	for c, vals := range run {
		p := percentile(vals, 0.5)
		r.layer("serve.run_s_p50."+classes[c].name, p.Value, "s", "first observed running to terminal, "+p.String())
	}
	r.layer("serve.rejected", float64(rejected), "count", fmt.Sprintf("of %d offered", len(res.jobs)))
	r.layer("serve.queue_depth_max", float64(res.queueDepthMax), "count", "queued jobs seen in one poll sweep")
	r.layer("serve.gen_lag_ms_max", ms(res.genLagMax), "ms", fmt.Sprintf("latest send behind schedule, %d sends", len(res.jobs)))
	reportTrace(r, traced.traceBytes, traced.traceEvents, traced.traceEncUsPerK, "completed jobs' trace.jsonl")
	if len(traced.ckBytes) == 0 {
		return sweepCheckpoint(o, r)
	}
	reportCheckpoint(r, traced.ckBytes, traced.ckSave, traced.ckLoad, "live resume.bin snapshots")
	return nil
}

func reportCheckpoint(r *report, size, save, load []float64, what string) {
	n := fmt.Sprintf("median of n=%d %s", len(size), what)
	r.layer("fl.checkpoint_bytes", median(size), "bytes", n)
	r.layer("fl.checkpoint_save_us", median(save), "us", n+", Checkpoint.Save")
	r.layer("fl.checkpoint_load_us", median(load), "us", n+", LoadCheckpoint")
}

func reportTrace(r *report, size, events, usPerK []float64, what string) {
	n := fmt.Sprintf("median of n=%d %s", len(size), what)
	r.layer("trace.bytes_per_job", median(size), "bytes", n)
	r.layer("trace.events_per_job", median(events), "count", n)
	r.layer("trace.write_jsonl_us_per_kevent", median(usPerK), "us", n+", trace.WriteJSONL re-encode")
}

// calibrate measures the daemon's capacity for the mix: a backlog of
// jobs, every class equally, submitted at once to a daemon whose queue
// holds them all, is drained; capacity is jobs over drain time. Run it
// with --calibrate to re-derive smRate.
func calibrate(o opts) error {
	const jobs = 200
	classes := jobClasses(o.seed)
	body, err := bodies(classes)
	if err != nil {
		return err
	}
	d, err := startDaemon(filepath.Join(o.stateDir, "calibrate"), jobs, nil)
	if err != nil {
		return err
	}
	defer d.stop()
	arr := make([]arrival, jobs)
	for i := range arr {
		arr[i].class = i % len(classes)
	}
	g := &loadgen{client: newClient(smConns), base: d.base, bodies: body, poll: smPoll, timeout: 170 * time.Second}
	t0 := time.Now()
	res, err := g.run(arr)
	if err != nil {
		return err
	}
	r := newReport()
	checkJobs(opts{seed: o.seed + 1}, r, classes, res.jobs)
	if r.failed > 0 {
		return fmt.Errorf("calibration jobs failed: %v", r.problems)
	}
	elapsed := time.Since(t0).Seconds()
	fmt.Printf("capacity %.3f jobs/s (%d jobs in %.2f s); 25%% is %.3f jobs/s\n", jobs/elapsed, jobs, elapsed, 0.25*jobs/elapsed)
	return nil
}
