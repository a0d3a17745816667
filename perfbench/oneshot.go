package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"spampsm/internal/scene"
	"spampsm/internal/spam"
)

const (
	// workers is the task-process count of every workload: one per CPU
	// of the two-CPU host the benchmark is calibrated on.
	workers = 2
	// oneshotSetupReps is how many times a oneshot run repeats its
	// set-up; setup_s is the median.
	oneshotSetupReps = 3
	// oneshotScale multiplies the calibrated DC and MOFF subsets.
	oneshotScale = 1.0
	// oneshotPairs is how many differently seeded DC and MOFF scene
	// pairs the scene set holds; one operation interprets them all.
	oneshotPairs = 4
	// oneshotLimit is the oneshot latency limit counted by goodput_rps.
	oneshotLimit = 10 * time.Second
)

// oneshotParams are the oneshot scene set: oneshotPairs pairs of DC and
// MOFF at oneshotScale, each scene with its own seed derived from the
// workload seed.
func oneshotParams(seed uint64) []scene.Params {
	var ps []scene.Params
	for v := 0; v < oneshotPairs; v++ {
		for _, p := range []scene.Params{scene.DC, scene.MOFF} {
			q := p.Scale(oneshotScale)
			q.Seed = subSeed(seed, p.Name, v)
			q.Name = fmt.Sprintf("%s-%d", p.Name, v)
			ps = append(ps, q)
		}
	}
	return ps
}

// runOneshot is a batch user interpreting new scenes: a closed loop
// with one client, each operation building fresh datasets over the
// shared warm programs and interpreting the whole scene set with two
// task workers. Every operation does the same work, so the median
// latency does not fall between scenes of different cost; a set of
// many scenes keeps it from hanging on one seed's draws.
func runOneshot(c *config) (*outcome, error) {
	o := newOutcome()
	ls := layerSamples{}
	ctx := context.Background()
	kb := spam.AirportKB()
	ps := oneshotParams(c.seed)
	var progs *spam.Programs
	scenes := make([]*scene.Scene, len(ps))
	refs := make([]*spam.Interpretation, len(ps))
	// The reference interpretations run through the benchmark's own
	// dispatcher (tlp.Pool.RunOne), not the pool the timed operations
	// use.
	refRunner := newTracedRunner(workers, newRecorder())
	reference := func(j int) error {
		in, err := spam.NewDatasetWith(scenes[j], kb, progs).InterpretContext(ctx,
			spam.InterpretOptions{Workers: workers, Runner: refRunner})
		if err != nil {
			return fmt.Errorf("reference interpretation of %s: %w", scenes[j].Name, err)
		}
		refs[j] = in
		return o.checkPrint(c, scenes[j].Name, fingerprint(in))
	}
	// A set-up compiles the rules, generates the scenes, builds their
	// datasets and warms up by interpreting the first pair, which gives
	// that pair's references. Every repetition does the same work.
	setup, err := repeat(oneshotSetupReps, func() error {
		t0 := time.Now()
		p, err := spam.BuildPrograms(kb)
		if err != nil {
			return err
		}
		t1 := time.Now()
		for j, q := range ps {
			scenes[j] = scene.Generate(q)
		}
		t2 := time.Now()
		for _, s := range scenes {
			spam.NewDatasetWith(s, kb, p)
		}
		t3 := time.Now()
		ls.add("spam.compile_s", t1.Sub(t0).Seconds())
		ls.add("scene.generate_s", t2.Sub(t1).Seconds())
		ls.add("spam.dataset_s", t3.Sub(t2).Seconds())
		progs = p
		if err := reference(0); err != nil {
			return err
		}
		return reference(1)
	})
	if err != nil {
		return nil, fmt.Errorf("oneshot set-up: %w", err)
	}
	for j := 2; j < len(scenes); j++ {
		if err := reference(j); err != nil {
			return nil, err
		}
	}
	if c.record {
		return o, nil
	}
	simInstr(ls, refs)

	var rec *recorder
	var tr *tracedRunner
	if c.trace {
		rec = newRecorder()
		tr = newTracedRunner(workers, rec)
	}
	var l opLog
	var plain, traced []float64
	for i := 0; i == 0 || l.timed < c.budget(); i++ {
		// The traced run alternates untraced and traced operations, so
		// their difference is the tracing overhead.
		useTrace := c.trace && i%2 == 1
		var opSpan int64
		var opPhases []phaseTiming
		var serial time.Duration
		var geoHits, geoMisses, geoEvict float64
		ins := make([]*spam.Interpretation, len(scenes))
		errs := make([]error, len(scenes))
		a0 := heapAllocs()
		t0 := time.Now()
		for j, s := range scenes {
			opt := spam.InterpretOptions{Workers: workers}
			if !useTrace {
				ins[j], errs[j] = spam.NewDatasetWith(s, kb, progs).InterpretContext(ctx, opt)
				continue
			}
			if opSpan == 0 {
				opSpan = rec.id()
			}
			sceneSpan := rec.id()
			tr.begin(opSpan, sceneSpan)
			opt.Runner = tr
			s0 := time.Now()
			ds := spam.NewDatasetWith(s, kb, progs)
			s1 := time.Now()
			ins[j], errs[j] = ds.InterpretContext(ctx, opt)
			s2 := time.Now()
			rec.add(0, sceneSpan, opSpan, "dataset", "spam", s0, s1)
			rec.add(sceneSpan, 0, opSpan, "interpret:"+s.Name, "spam", s0, s2)
			phs := tr.take()
			serial += s2.Sub(s1) - runnerWall(phs)
			opPhases = append(opPhases, phs...)
			g := ds.Store.GeoStats()
			geoHits += float64(g.Hits)
			geoMisses += float64(g.Misses)
			geoEvict += float64(g.Evictions)
		}
		d := time.Since(t0)
		l.allocs += heapAllocs() - a0
		l.timed += d
		ok := true
		for j, in := range ins {
			if !o.checkInterpretation(scenes[j].Name, in, errs[j], refs[j]) {
				ok = false
			}
		}
		l.done(d, ok, oneshotLimit)
		if useTrace {
			traced = append(traced, d.Seconds())
			phaseLayers(ls, opPhases)
			ls.add("spam.serial_ms", ms(serial))
			ls.add("geom.memo_hits", geoHits)
			ls.add("geom.memo_misses", geoMisses)
			ls.add("geom.memo_evictions", geoEvict)
			ls.add("geom.memo_hit_ratio", ratio(geoHits, geoHits+geoMisses))
		} else {
			plain = append(plain, d.Seconds())
		}
	}
	// The references are the benchmark's, not the workload's: the
	// retained heap holds the programs and scenes only.
	refs = nil
	o.finish(setup, &l)
	runtime.KeepAlive(progs)
	runtime.KeepAlive(scenes)
	if c.trace {
		ls.into(o)
		o.layer["trace.overhead_ms"] = overhead(traced, plain, 1000)
		selfLayerMetrics(o, rec, len(traced))
		o.rec = rec
	}
	o.timing("interpret_s", "s", scale(l.lat, 1e-3))
	o.commonLines()
	return o, nil
}

// checkInterpretation settles one interpretation against its
// reference: an error or an incomplete interpretation is a failed
// operation, different outputs are a mismatch. It reports whether the
// operation succeeded.
func (o *outcome) checkInterpretation(name string, in *spam.Interpretation, err error, ref *spam.Interpretation) bool {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return false
	}
	if !in.Completeness.Complete {
		fmt.Fprintf(os.Stderr, "perfbench: %s: incomplete interpretation: %+v\n", name, in.Completeness)
		return false
	}
	if !spam.SameOutputs(in, ref) {
		o.mismatch("%s: outputs differ from the reference interpretation", name)
	}
	if got, want := fingerprint(in), fingerprint(ref); !reflect.DeepEqual(got, want) {
		o.mismatch("%s: fingerprint %v, reference %v", name, got, want)
	}
	return true
}

// simInstr records the deterministic per-phase simulated instructions
// of an interpretation set.
func simInstr(ls layerSamples, ins []*spam.Interpretation) {
	for _, p := range phases {
		t := 0.0
		for _, in := range ins {
			if ph := in.Phase(p); ph != nil {
				t += ph.Instr
			}
		}
		ls.add("spam.sim_instr."+p, t)
	}
}

// commonLines adds the report lines every workload shares.
func (o *outcome) commonLines() {
	o.line("%-22s %12.4f %-5s median of %d set-ups", "setup_s", o.e2e["setup_s"], "s", o.setups)
	o.line("%-22s %12.4f %-5s nearest rank", "latency_p90_ms", o.layer["latency_p90_ms"], "ms")
	o.line("%-22s %12.4f %-5s %d of %d operations failed", "error_rate", o.layer["error_rate"], "ratio", o.failed, o.attempted)
	o.line("%-22s %12.4f %-5s", "goodput_rps", o.e2e["goodput_rps"], "1/s")
	o.line("%-22s %12.4f %-5s", "alloc_mb_per_op", o.e2e["alloc_mb_per_op"], "MB")
	o.line("%-22s %12.4f %-5s", "retained_heap_mb", o.e2e["retained_heap_mb"], "MB")
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
