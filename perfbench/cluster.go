package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"spampsm/internal/cluster"
	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

const (
	// clusterScale multiplies the calibrated DC subset.
	clusterScale = 2.0
	// clusterProcs worker processes with one local task worker each.
	clusterProcs = 2
	// clusterSetupReps is the cluster workload's set-up repetitions:
	// each starts a coordinator with its worker processes and runs a
	// warm-up pass. The timed passes rotate over all of them: a cluster's
	// speed varies by 10–20% from one start to the next (with the
	// placement of chunks and the state of each process) and then holds
	// for the run, so one cluster per run made that variance the run's.
	clusterSetupReps = 3
	// clusterLimit is the cluster latency limit counted by goodput_rps.
	clusterLimit = 10 * time.Second
)

// runCluster is the multi-process path: a closed loop with one client
// interpreting DC, with FA→LCC re-entry, through cluster.NewRunner on
// worker processes that re-execute this binary.
func runCluster(c *config) (*outcome, error) {
	o := newOutcome()
	ls := layerSamples{}
	ctx := context.Background()
	kb := spam.AirportKB()
	p := scene.DC.Scale(clusterScale)
	p.Seed = subSeed(c.seed, "cluster", 0)
	progs, err := spam.BuildPrograms(kb)
	if err != nil {
		return nil, err
	}
	sc := scene.Generate(p)

	// The reference is an in-process interpretation of the same scene.
	iopt := spam.InterpretOptions{Workers: clusterProcs, ReEntry: true}
	ref, err := spam.NewDatasetWith(sc, kb, progs).InterpretContext(ctx, iopt)
	if err != nil {
		return nil, fmt.Errorf("reference interpretation: %w", err)
	}
	if err := o.checkPrint(c, p.Name, fingerprint(ref)); err != nil {
		return nil, err
	}
	if c.record {
		return o, nil
	}
	simInstr(ls, []*spam.Interpretation{ref})

	copt := spam.InterpretOptions{Workers: 1, ReEntry: true}
	// pass interprets the scene once through the cluster (or, with
	// inProcess, a private pool), optionally timing each phase, and
	// settles it against the reference. A pass during which a worker
	// process died or tasks were requeued is a failed operation, even
	// when its output is right.
	var rec *recorder
	if c.trace {
		rec = newRecorder()
	}
	var l opLog
	var cos []*cluster.Coordinator
	defer func() {
		for _, co := range cos {
			co.Close()
		}
	}()
	var local *spam.Dataset // the in-process comparison's dataset
	pass := func(co *cluster.Coordinator, timed, traced, inProcess bool, wall map[string]time.Duration) (time.Duration, cluster.Stats, *spam.Interpretation) {
		opt := copt
		var runner spam.Runner = cluster.NewRunner(co, copt)
		layer := "cluster"
		if inProcess {
			opt = iopt
			runner = privatePool{&tlp.Pool{Workers: clusterProcs}}
			layer = "tlp"
		}
		if traced {
			runner = &phaseTimer{inner: runner, wall: wall, rec: rec, op: rec.id(), layer: layer}
		}
		opt.Runner = runner
		before := co.Stats()
		// The coordinator builds a fresh dataset per pass while the
		// workers keep theirs, with its warm geometry memo; the
		// in-process comparison keeps one dataset warm the same way.
		ds := spam.NewDatasetWith(sc, kb, progs)
		if inProcess {
			if local == nil {
				local = ds
			}
			ds = local
		}
		a0 := heapAllocs()
		t0 := time.Now()
		in, err := ds.InterpretContext(ctx, opt)
		d := time.Since(t0)
		if timed {
			l.allocs += heapAllocs() - a0
			l.timed += d
		}
		if pt, ok := runner.(*phaseTimer); ok {
			rec.add(pt.op, 0, pt.op, "interpret", "spam", t0, t0.Add(d))
		}
		delta := statsDelta(before, co.Stats())
		ok := o.checkInterpretation(p.Name, in, err, ref)
		if delta.WorkerDeaths > 0 || delta.Requeued > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: cluster pass lost %d worker(s), requeued %d task(s)\n",
				delta.WorkerDeaths, delta.Requeued)
			ok = false
		}
		switch {
		case timed:
			l.done(d, ok, clusterLimit)
		case !inProcess:
			// The warm-up is attempted, but not timed: it counts in
			// error_rate, not in the timed log behind alloc_mb_per_op.
			o.attempted++
			if !ok {
				o.failed++
			}
		}
		return d, delta, in
	}

	setup, err := repeat(clusterSetupReps, func() error {
		t0 := time.Now()
		pr, err := spam.BuildPrograms(kb)
		if err != nil {
			return err
		}
		t1 := time.Now()
		s := scene.Generate(p)
		ls.add("spam.compile_s", t1.Sub(t0).Seconds())
		ls.add("scene.generate_s", time.Since(t1).Seconds())
		progs, sc = pr, s
		co, err := cluster.Start(cluster.Config{Workers: clusterProcs, LocalWorkers: 1,
			Network: "tcp", Addr: "127.0.0.1:0"})
		if err != nil {
			return err
		}
		cos = append(cos, co)
		if err := co.RegisterDataset(cluster.AirportSpec(p)); err != nil {
			return err
		}
		// Warm-up: the workers build their datasets and the chunk
		// tables fill. It is not timed, but its failures count.
		pass(co, false, false, false, nil)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cluster set-up: %w", err)
	}

	var plain, traced []float64
	clusterWall := map[string][]float64{}
	localWall := map[string][]float64{}
	var spent time.Duration
	for i := 0; i == 0 || spent < c.budget(); i++ {
		useTrace := c.trace && i%2 == 1
		co := cos[i%len(cos)]
		wall := map[string]time.Duration{}
		d, delta, in := pass(co, true, useTrace, false, wall)
		spent += d
		if !useTrace {
			plain = append(plain, d.Seconds())
			continue
		}
		traced = append(traced, d.Seconds())
		seedBytes := 0.0
		for _, ph := range in.Phases {
			seedBytes += ph.SeedBytes
		}
		ls.add("cluster.shipped_bytes_per_task", ratio(float64(delta.ShippedBytes), float64(delta.TasksCompleted)))
		ls.add("cluster.ship_share", ratio(float64(delta.ShippedBytes), seedBytes))
		ls.add("cluster.chunk_hit_ratio", ratio(float64(delta.ChunkHits), float64(delta.ChunkHits)+float64(delta.ChunksShipped)))
		ls.add("cluster.continuation_share", ratio(float64(delta.Continuations), float64(delta.ContinuationTasks)))
		ls.add("cluster.steals", float64(delta.Steals))
		for _, ph := range phases {
			clusterWall[ph] = append(clusterWall[ph], ms(wall[ph]))
		}
		// The same scene through a private in-process pool gives each
		// phase's in-process wall, the base of the cluster overhead.
		lwall := map[string]time.Duration{}
		ld, _, _ := pass(co, false, true, true, lwall)
		spent += ld
		for _, ph := range phases {
			localWall[ph] = append(localWall[ph], ms(lwall[ph]))
		}
	}
	o.finish(setup, &l)
	runtime.KeepAlive(ref)
	var total cluster.Stats
	for _, co := range cos {
		st := co.Stats()
		total.WorkerDeaths += st.WorkerDeaths
		total.Requeued += st.Requeued
		total.Respawns += st.Respawns
	}
	if c.trace {
		ls.into(o)
		for _, ph := range phases {
			o.layer["tlp.phase_ms."+ph] = median(clusterWall[ph])
			o.layer["cluster.overhead_ms."+ph] = median(clusterWall[ph]) - median(localWall[ph])
		}
		o.layer["cluster.worker_deaths"] = float64(total.WorkerDeaths)
		o.layer["cluster.requeued"] = float64(total.Requeued)
		o.layer["cluster.respawns"] = float64(total.Respawns)
		o.layer["trace.overhead_ms"] = overhead(traced, plain, 1000)
		selfLayerMetrics(o, rec, len(traced)+len(localWall[phases[0]]))
		o.rec = rec
	}
	o.timing("interpret_s", "s", scale(l.lat, 1e-3))
	o.line("%-22s %12d %-5s worker processes lost; %d tasks requeued, %d respawns",
		"cluster.worker_deaths", total.WorkerDeaths, "count", total.Requeued, total.Respawns)
	o.commonLines()
	return o, nil
}

// statsDelta is the coordinator accounting accrued between two
// snapshots.
func statsDelta(a, b cluster.Stats) cluster.Stats {
	return cluster.Stats{
		TasksCompleted:    b.TasksCompleted - a.TasksCompleted,
		ShippedBytes:      b.ShippedBytes - a.ShippedBytes,
		ChunksShipped:     b.ChunksShipped - a.ChunksShipped,
		ChunkHits:         b.ChunkHits - a.ChunkHits,
		ContinuationTasks: b.ContinuationTasks - a.ContinuationTasks,
		Continuations:     b.Continuations - a.Continuations,
		Steals:            b.Steals - a.Steals,
		Requeued:          b.Requeued - a.Requeued,
		WorkerDeaths:      b.WorkerDeaths - a.WorkerDeaths,
		Respawns:          b.Respawns - a.Respawns,
	}
}
