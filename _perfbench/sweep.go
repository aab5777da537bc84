package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"fedsched"
	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/fl"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/sample"
	"fedsched/internal/tensor"
)

// perLayer are the metrics of a traced run (--trace 1). Every workload
// reports all of them: its own traced phase reports the layers it
// exercises, and the sweep below measures the others on their own
// workloads' inputs in short passes.
var perLayer = func() []metricDef {
	var ds []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			ds = append(ds, metricDef{n, unit, better})
		}
	}
	for _, prec := range []string{"f64", "f32"} {
		for _, op := range []string{"conv_fwd", "conv_dw", "conv_dx"} {
			for _, l := range []string{"conv1", "conv2"} {
				add("GFLOP/s", "higher", fmt.Sprintf("tensor.%s.%s_gflops.%s", prec, op, l))
			}
		}
		add("GFLOP/s", "higher", "tensor."+prec+".gemm_gflops.dense1")
	}
	add("us", "lower", "nn.train_batch_us", "nn.sgd_step_us")
	for _, l := range []string{"conv1", "conv2", "dense1", "dense2", "relu", "pool"} {
		add("us", "lower", "nn."+l+".fwd_us", "nn."+l+".bwd_us")
	}
	add("fraction", "higher", "nn.layer_sum_ratio")
	add("ms", "lower", "fl.evaluate_ms", "fl.train_cpu_ms_per_round")
	add("fraction", "lower", "fl.unattributed_share")
	add("ms", "lower", "fl.round_rest_ms")
	add("fraction", "higher", "fl.useful_ratio")
	add("count", "lower", "fl.faulted_per_round", "fl.late_per_round")
	add("bytes", "lower", "fl.checkpoint_bytes")
	add("us", "lower", "fl.checkpoint_save_us", "fl.checkpoint_load_us")
	add("ms", "lower", "sched.solve_ms")
	add("fraction", "lower", "sched.solve_share")
	add("count", "lower", "sched.users", "sched.shards")
	add("ms", "lower", "sched.fedlbap_ms")
	add("us", "lower", "sample.cohort_us", "device.materialize_us", "device.train_samples_us")
	add("ns", "lower", "fault.draw_ns")
	add("ms", "lower", "data.generate_ms", "data.partition_ms", "profile.build_ms", "data.generate_ms.job")
	add("bytes", "lower", "trace.bytes_per_job")
	add("count", "lower", "trace.events_per_job")
	add("us", "lower", "trace.write_jsonl_us_per_kevent")
	add("ms", "lower", "serve.submit_ms_p50", "serve.submit_ms_p99", "serve.status_ms_p50", "serve.queue_wait_ms_p50", "serve.queue_wait_ms_p90")
	for _, c := range jobClasses(defaultSeed) {
		add("s", "lower", "serve.run_s_p50."+c.name)
	}
	add("count", "lower", "serve.rejected", "serve.queue_depth_max")
	add("ms", "lower", "serve.gen_lag_ms_max")
	add("fraction", "lower", "bench.trace_overhead_share")
	return ds
}()

// Sweep sizes: short passes over each workload's inputs.
const (
	sweepSetups    = 3
	sweepTBRounds  = 2
	sweepPopRounds = 5
	sweepJobs      = 8
)

// sweep measures from outside, on the workloads' own inputs, every layer
// that o.workload's traced phase does not report itself: that phase
// reports fl on testbed-train; sched, sample and fl on population; and
// serve, trace and the checkpoint on serve-mix.
func sweep(o opts, r *report) error {
	sweepTensor(o.seed, r)
	train := fedsched.SMNIST(tbSamples, o.seed)
	sweepNN(o.seed, r, train)
	if err := sweepTestbed(o, r, o.workload != "testbed-train"); err != nil {
		return fmt.Errorf("sweep testbed: %w", err)
	}
	if err := sweepPopulation(o, r, o.workload != "population"); err != nil {
		return fmt.Errorf("sweep population: %w", err)
	}
	sweepJobData(o.seed, r)
	if o.workload != "serve-mix" {
		if err := sweepServe(o, r); err != nil {
			return fmt.Errorf("sweep serve: %w", err)
		}
	}
	return nil
}

// timeCall returns fn's median time per call in ns: one warm-up call,
// then seven samples of enough calls to fill about 2 ms each.
func timeCall(fn func()) float64 {
	fn()
	reps := 1
	for {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if time.Since(t0) > 2*time.Millisecond || reps >= 1<<20 {
			break
		}
		reps *= 2
	}
	s := make([]float64, 7)
	for i := range s {
		t0 := time.Now()
		for j := 0; j < reps; j++ {
			fn()
		}
		s[i] = float64(time.Since(t0).Nanoseconds()) / float64(reps)
	}
	return median(s)
}

// convShape is one LeNet-S convolution at batch 20.
type convShape struct {
	name                   string
	n, c, h, w, oc, k, pad int
}

var lenetConvs = []convShape{
	{"conv1", 20, 1, 16, 16, 6, 5, 2},
	{"conv2", 20, 6, 8, 8, 12, 5, 0},
}

func sweepTensor(seed int64, r *report) {
	sweepTensorOf[float64](seed, r, "f64")
	sweepTensorOf[float32](seed, r, "f32")
}

// sweepTensorOf times the three products of a training step on each
// LeNet-S convolution, and the dense1 GEMM, as counted FLOPs over timed
// calls.
func sweepTensorOf[T tensor.Float](seed int64, r *report, prec string) {
	rng := rand.New(rand.NewSource(seed))
	for _, s := range lenetConvs {
		oh := tensor.ConvOutSize(s.h, s.k, 1, s.pad)
		m, kdim := s.n*oh*oh, s.c*s.k*s.k
		x := tensor.RandnOf[T](rng, 1, s.n, s.c, s.h, s.w)
		w := tensor.RandnOf[T](rng, 0.1, s.oc, kdim)
		bias := tensor.RandnOf[T](rng, 0.1, s.oc)
		ym := tensor.NewOf[T](m, s.oc)
		gm := tensor.RandnOf[T](rng, 1, m, s.oc)
		dw := tensor.NewOf[T](s.oc, kdim)
		dx := tensor.NewOf[T](s.n, s.c, s.h, s.w)
		flops := 2 * float64(m) * float64(kdim) * float64(s.oc)
		count := fmt.Sprintf("%.3g FLOP per call, median of 7 timed samples", flops)
		r.layer(fmt.Sprintf("tensor.%s.conv_fwd_gflops.%s", prec, s.name),
			flops/timeCall(func() { tensor.ConvForwardInto(ym, x, w, bias, s.k, s.k, 1, s.pad) }), "GFLOP/s", count)
		r.layer(fmt.Sprintf("tensor.%s.conv_dw_gflops.%s", prec, s.name),
			flops/timeCall(func() { tensor.ConvGradWeightsInto(dw, gm, x, s.k, s.k, 1, s.pad) }), "GFLOP/s", count)
		r.layer(fmt.Sprintf("tensor.%s.conv_dx_gflops.%s", prec, s.name),
			flops/timeCall(func() { tensor.ConvGradInputInto(dx, gm, w, s.k, s.k, 1, s.pad) }), "GFLOP/s", count)
	}
	a := tensor.RandnOf[T](rng, 1, 20, 48)
	b := tensor.RandnOf[T](rng, 0.1, 48, 48)
	dst := tensor.NewOf[T](20, 48)
	flops := 2.0 * 20 * 48 * 48
	r.layer("tensor."+prec+".gemm_gflops.dense1", flops/timeCall(func() { tensor.MatMulTransBInto(dst, a, b) }), "GFLOP/s",
		fmt.Sprintf("%.3g FLOP per call, median of 7 timed samples", flops))
}

// timeTrainBatch times one TrainBatch and one Step of a trainer on the
// first mini-batch of train, in µs.
func timeTrainBatch(p nn.Precision, train *data.Dataset, batch int) (trainUs, stepUs float64) {
	t := nn.NewTrainer(p, tbArch, rand.New(rand.NewSource(1)), 0.02, 0.9)
	x, labels := train.Batch(0, batch)
	trainUs = timeCall(func() { t.TrainBatch(x, labels) }) / 1e3
	stepUs = timeCall(t.Step) / 1e3
	return trainUs, stepUs
}

// timeEvaluate is the median of three fl.Evaluate calls, in ms.
func timeEvaluate(net *nn.Network, test *data.Dataset) float64 {
	var s []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		fl.Evaluate(net, test, 256)
		s = append(s, ms(time.Since(t0)))
	}
	return median(s)
}

// sweepNN times a training step through nn.NewTrainer, then each layer
// of the same network called one by one (which skips the fused-ReLU
// peephole of Network.Forward, so the layer sum is not the step).
func sweepNN(seed int64, r *report, train *data.Dataset) {
	tb, step := timeTrainBatch(nn.F64, train, 20)
	r.layer("nn.train_batch_us", tb, "us", "LeNet-S f64, batch 20, median of 7 timed samples")
	r.layer("nn.sgd_step_us", step, "us", "LeNet-S f64, median of 7 timed samples")

	net := nn.BuildNetwork[float64](tbArch, rand.New(rand.NewSource(seed)))
	x, labels := train.Batch(0, 20)
	fwd := make([]float64, len(net.Layers))
	bwd := make([]float64, len(net.Layers))
	for i, l := range net.Layers {
		in := x
		fwd[i] = timeCall(func() { x = l.Forward(in, true) }) / 1e3
	}
	grad := tensor.NewOf[float64](x.Dim(0), x.Dim(1))
	nn.SoftmaxCrossEntropyInto(grad, x, labels)
	for i := len(net.Layers) - 1; i >= 0; i-- {
		l, g := net.Layers[i], grad
		bwd[i] = timeCall(func() { grad = l.Backward(g) }) / 1e3
	}

	// Name layers as the metrics do: conv1, conv2, dense1, dense2, and
	// relu/pool summed over their instances.
	sums := map[string][2]float64{}
	var order []string
	convs, denses, total := 0, 0, 0.0
	for i, l := range net.Layers {
		var name string
		switch l.(type) {
		case *nn.Conv2DOf[float64]:
			convs++
			name = fmt.Sprintf("conv%d", convs)
		case *nn.DenseOf[float64]:
			denses++
			name = fmt.Sprintf("dense%d", denses)
		case *nn.ReLUOf[float64]:
			name = "relu"
		case *nn.MaxPool2DOf[float64]:
			name = "pool"
		default:
			name = "other"
		}
		if _, ok := sums[name]; !ok {
			order = append(order, name)
		}
		s := sums[name]
		sums[name] = [2]float64{s[0] + fwd[i], s[1] + bwd[i]}
		total += fwd[i] + bwd[i]
	}
	for _, name := range order {
		if name == "other" {
			continue
		}
		r.layer("nn."+name+".fwd_us", sums[name][0], "us", "batch 20, median of 7 timed samples, summed over instances")
		r.layer("nn."+name+".bwd_us", sums[name][1], "us", "batch 20, median of 7 timed samples, summed over instances")
	}
	r.layer("nn.layer_sum_ratio", total/tb, "fraction", fmt.Sprintf("%d layers' fwd+bwd over nn.train_batch_us", len(net.Layers)))
}

// sweepTestbed times the testbed-train set-up by module and, with
// withRun, the fl layer of a short traced run.
func sweepTestbed(o opts, r *report, withRun bool) error {
	var gen, prof, lbap, part []float64
	for i := 0; i < sweepSetups; i++ {
		var st tbSetupTimes
		if _, err := setupTestbed(o.seed, &st); err != nil {
			return err
		}
		gen = append(gen, ms(st.generate))
		prof = append(prof, ms(st.profile))
		lbap = append(lbap, ms(st.schedule))
		part = append(part, ms(st.partition))
	}
	n := fmt.Sprintf("median of n=%d testbed-train set-ups", sweepSetups)
	r.layer("data.generate_ms", median(gen), "ms", n+": SMNIST train and test sets")
	r.layer("profile.build_ms", median(prof), "ms", n+": first Testbed.Request")
	r.layer("sched.fedlbap_ms", median(lbap), "ms", n+": Fed-LBAP schedule")
	r.layer("data.partition_ms", median(part), "ms", n+": rescale, IIDSizes, clients")
	if !withRun {
		return nil
	}
	p, err := runTestbedPass(o.seed, sweepTBRounds, true)
	if err != nil {
		return err
	}
	reportTestbedLayers(r, []*tbPass{p})
	return nil
}

// reportTestbedLayers reports the fl layer of traced testbed passes,
// explaining a round with what the sweep times on the same shapes:
// every mini-batch's TrainBatch+Step spread over two workers, plus one
// evaluation of the test set.
func reportTestbedLayers(r *report, passes []*tbPass) {
	var rounds, cpu []float64
	for _, p := range passes {
		rounds = append(rounds, p.roundsMs...)
		cpu = append(cpu, p.cpuMs...)
	}
	last := passes[len(passes)-1]
	count := fmt.Sprintf("%d rounds", len(rounds))
	ev := timeEvaluate(last.hist.Model, last.in.test)
	r.layer("fl.evaluate_ms", ev, "ms", "median of 3 fl.Evaluate calls on the testbed-train test set")
	r.layer("fl.train_cpu_ms_per_round", median(cpu), "ms", count+", median process CPU (user+sys)")
	tb, step := timeTrainBatch(nn.F64, last.in.train, 20)
	explained := float64(last.in.batches)*(tb+step)/1000/2 + ev
	r.layer("fl.unattributed_share", 1-explained/median(rounds), "fraction",
		fmt.Sprintf("%s; %d batches x (%.0f+%.0f us)/2 workers + evaluate %.1f ms", count, last.in.batches, tb, step, ev))
}

// sweepPopulation times the device and fault layers on one cohort of the
// population workload and, with withRun, the decorated layers of a short
// traced population pass.
func sweepPopulation(o opts, r *report, withRun bool) error {
	if withRun {
		sp := popDefault
		sp.rounds = sweepPopRounds
		p, err := runPopulationPass(o.seed, sp, true)
		if err != nil {
			return err
		}
		reportPopulationLayers(r, []*popPass{p})
	}

	pop := device.NewPopulation(popN, o.seed)
	cohort := sample.NewUniform(popN, popCohort, o.seed).Cohort(0, nil)
	plan, err := fault.ParseSpec(popFaults, o.seed*0x9e3779b9+97)
	if err != nil {
		return err
	}
	arch := nn.LeNetSmall(1, 16, 16, 10)
	samples := popShards * 100 / popCohort
	var d device.Device
	k := float64(len(cohort))
	mat := timeCall(func() {
		for _, id := range cohort {
			pop.Materialize(id, &d)
		}
	})
	both := timeCall(func() {
		for _, id := range cohort {
			pop.Materialize(id, &d)
			d.TrainSamples(arch, samples, 20)
		}
	})
	draw := timeCall(func() {
		for _, id := range cohort {
			plan.Fault(3, id)
		}
	})
	n := fmt.Sprintf("per slot over a %d-client cohort, median of 7 timed samples", len(cohort))
	r.layer("device.materialize_us", mat/k/1e3, "us", n)
	r.layer("device.train_samples_us", (both-mat)/k/1e3, "us", fmt.Sprintf("%d samples, %s", samples, n))
	r.layer("fault.draw_ns", draw/k, "ns", n)
	return nil
}

// reportPopulationLayers reports the decorators' clocks over traced
// population passes.
func reportPopulationLayers(r *report, passes []*popPass) {
	var rounds, cohort, solve, rest []float64
	selected, part, faulted, late := 0, 0, 0, 0
	users, shards := 0, 0
	for _, p := range passes {
		rounds = append(rounds, p.roundsMs...)
		cohort = append(cohort, p.timers.cohort...)
		solve = append(solve, p.timers.solve...)
		for k, pr := range p.rounds {
			selected += pr.Selected
			part += pr.Participants
			faulted += pr.Faulted
			late += pr.Late
			rest = append(rest, p.roundsMs[k]-p.timers.cohort[k]-p.timers.solve[k])
		}
		users, shards = p.timers.users, p.timers.shards
	}
	n := float64(len(rounds))
	count := fmt.Sprintf("%d rounds", len(rounds))
	r.layer("sched.solve_ms", median(solve), "ms", count+", wrapped SparseFedLBAP.Schedule, median")
	r.layer("sched.solve_share", sum(solve)/sum(rounds), "fraction", count+", solve time over round time")
	r.layer("sched.users", float64(users), "count", "cohort slots per solve")
	r.layer("sched.shards", float64(shards), "count", "shards per solve")
	r.layer("sample.cohort_us", median(cohort)*1000, "us", count+", wrapped Cooldown(Uniform).Cohort, median")
	r.layer("fl.round_rest_ms", median(rest), "ms", count+", round minus cohort and solve, median")
	r.layer("fl.useful_ratio", float64(part)/float64(selected), "fraction", count+", participants over selected")
	r.layer("fl.faulted_per_round", float64(faulted)/n, "count", count)
	r.layer("fl.late_per_round", float64(late)/n, "count", count)
}

// sweepJobData times one serve sync job's datasets.
func sweepJobData(seed int64, r *report) {
	c := jobClasses(seed)[0].cfg
	var gen []float64
	for i := 0; i < sweepSetups; i++ {
		t0 := time.Now()
		data.SMNIST(c.Samples, c.Seed)
		data.SMNIST(c.TestSamples, c.Seed)
		gen = append(gen, ms(time.Since(t0)))
	}
	r.layer("data.generate_ms.job", median(gen), "ms", fmt.Sprintf("median of n=%d: one sync job's SMNIST train and test sets", sweepSetups))
}

// sweepServe runs a short traced serve-mix phase: every class twice, at
// the workload's rate, through one daemon.
func sweepServe(o opts, r *report) error {
	classes := jobClasses(o.seed)
	arr := make([]arrival, sweepJobs)
	for i := range arr {
		arr[i] = arrival{at: time.Duration(float64(i) / smRate * float64(time.Second)), class: i % len(classes)}
	}
	ph, err := runServePhase(o, r, arr, true, "sweep", 0, 1)
	if err != nil {
		return err
	}
	return reportServeLayers(o, r, classes, ph)
}

// sweepCheckpoint times the checkpoint of a sync serve job's shape: the
// same synthetic clients and config, run with a checkpoint after every
// round as the daemon runs it. It stands in when a traced serve phase
// caught no live snapshot.
func sweepCheckpoint(o opts, r *report) error {
	c := jobClasses(o.seed)[0].cfg
	train, test := data.SMNIST(c.Samples, c.Seed), data.SMNIST(c.TestSamples, c.Seed)
	part := data.IIDEqual(train, c.Clients, rand.New(rand.NewSource(c.Seed)))
	links := make([]network.Link, c.Clients)
	for i := range links {
		links[i] = network.WiFi()
	}
	clients, err := fl.BuildClients(make([]*device.Device, c.Clients), links, part.Materialize(train))
	if err != nil {
		return err
	}
	var last *fl.Checkpoint
	cfg := fl.Config{
		Arch: tbArch, Rounds: c.Rounds, BatchSize: 20, LR: 0.02, Momentum: 0.9, Seed: c.Seed,
		Workers: c.Workers, EvalEvery: 1, CheckpointEvery: 1,
		CheckpointSink: func(ck *fl.Checkpoint) error { last = ck; return nil },
	}
	if _, err := fl.Run(cfg, clients, test); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := last.Save(&buf); err != nil {
		return err
	}
	raw := buf.Bytes()
	save := timeCall(func() {
		buf.Reset()
		last.Save(&buf)
	})
	load := timeCall(func() { fl.LoadCheckpoint(bytes.NewReader(raw)) })
	reportCheckpoint(r, []float64{float64(len(raw))}, []float64{save / 1e3}, []float64{load / 1e3},
		"final checkpoint of a sync job's run, median of 7 timed samples")
	return nil
}
