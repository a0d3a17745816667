package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"spampsm/internal/scene"
	"spampsm/internal/spam"
)

const (
	// sessionLimit is the session latency limit counted by goodput_rps.
	sessionLimit = 2 * time.Second
	// sessionUpdates is how many updates each session takes before the
	// next session, over the next seeded scene, opens.
	sessionUpdates = 8
	// sessionCheckEvery is the mean spacing of the updates checked
	// against a from-scratch interpretation; sessionMaxChecks caps them.
	sessionCheckEvery = 24
	sessionMaxChecks  = 6
)

// sessionChurn is the delta recipe of a session's update j: 1% of the
// regions, with scene.DefaultChurn's mechanism shares made exact
// instead of drawn: every fourth update occludes its region, two
// re-segment it and one lets it drift. An occlusion shifts every later
// RTF batch and re-runs several times the tasks a move does, so the
// two form separate latency modes; drawing the mechanism, or mixing in
// 5% updates (most of which occlude), leaves close to half of the
// updates in the slow mode and the median between the modes, where it
// swings with every seed.
func sessionChurn(seed uint64, j int) scene.Churn {
	c := scene.Churn{Seed: seed, Fraction: 0.01}
	switch j % 4 {
	case 0:
		c.Occlusion = 1
	case 1, 2:
		c.MisSeg = 1
	}
	return c
}

// runSession is the incremental path: a closed loop with one client
// folding seeded scene deltas into spam.Sessions over DC. Sessions run
// one after another, sessionUpdates updates each, every one over its
// own seeded scene, so one run averages over many scenes while holding
// one session's warm engines at a time.
func runSession(c *config) (*outcome, error) {
	o := newOutcome()
	ls := layerSamples{}
	ctx := context.Background()
	kb := spam.AirportKB()
	params := func(k int) scene.Params {
		p := scene.DC
		p.Seed = subSeed(c.seed, "session", k)
		p.Name = fmt.Sprintf("DC-%d", k)
		return p
	}
	// open compiles the rules, generates session k's scene and opens a
	// session over it with its initial interpretation (and, in the
	// traced run, a traced twin over the same scene).
	var rec *recorder
	var tr *tracedRunner
	if c.trace {
		rec = newRecorder()
		tr = newTracedRunner(workers, rec)
	}
	var setup []float64
	open := func(k int) (sess, twin *spam.Session, progs *spam.Programs, first *spam.Interpretation, err error) {
		t0 := time.Now()
		if progs, err = spam.BuildPrograms(kb); err != nil {
			return
		}
		ls.add("spam.compile_s", time.Since(t0).Seconds())
		t1 := time.Now()
		sc := scene.Generate(params(k))
		ls.add("scene.generate_s", time.Since(t1).Seconds())
		sess = spam.NewSession(spam.NewDatasetWith(sc, kb, progs), spam.InterpretOptions{Workers: workers})
		if first, _, err = sess.Interpret(ctx); err != nil {
			return
		}
		setup = append(setup, time.Since(t0).Seconds())
		if c.trace {
			twin = spam.NewSession(spam.NewDatasetWith(sc, kb, progs), spam.InterpretOptions{Workers: workers, Runner: tr})
			_, _, err = twin.Interpret(ctx)
		}
		return
	}

	var l opLog
	var plain, traced, retained []float64
	var updInstr float64
	var reused, tasks float64
	var spent time.Duration
	var sess, twin *spam.Session
	checks, i := 0, 0
	for k := 0; k == 0 || spent < c.budget(); k++ {
		var progs *spam.Programs
		var first *spam.Interpretation
		var err error
		if sess, twin, progs, first, err = open(k); err != nil {
			return nil, fmt.Errorf("open session %d: %w", k, err)
		}
		if k == 0 {
			if err := o.checkPrint(c, params(0).Name, fingerprint(first)); err != nil {
				return nil, err
			}
			if c.record {
				return o, nil
			}
			simInstr(ls, []*spam.Interpretation{first})
		}
		var geoPrev spam.GeoMemoStats
		if twin != nil {
			geoPrev = twin.Store().GeoStats()
		}
		for j := 0; j < sessionUpdates; j, i = j+1, i+1 {
			name := params(k).Name
			delta := sess.Scene().Churn(sessionChurn(subSeed(c.seed, "churn", i), j))
			a0 := heapAllocs()
			t0 := time.Now()
			in, rep, err := sess.Update(ctx, delta)
			d := time.Since(t0)
			l.allocs += heapAllocs() - a0
			l.timed += d
			spent += d
			ok := err == nil && in.Completeness.Complete
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s update %d: %v\n", name, j, err)
			}
			if ok && k == 0 {
				updInstr += rep.UpdateInstr
			}
			plain = append(plain, ms(d))

			if ok && checks < sessionMaxChecks && (i == 0 || subSeed(c.seed, "check", i)%sessionCheckEvery == 0) {
				checks++
				fresh, ferr := spam.NewDatasetWith(sess.Scene().Clone(), kb, progs).InterpretContext(ctx,
					spam.InterpretOptions{Workers: workers})
				if ferr != nil {
					return nil, fmt.Errorf("from-scratch check of %s update %d: %w", name, j, ferr)
				}
				if !spam.SameOutputs(in, fresh) {
					o.mismatch("%s update %d: outputs differ from a from-scratch interpretation", name, j)
				}
			}

			if twin != nil {
				op := rec.id()
				tr.begin(op, op)
				t1 := time.Now()
				tin, trep, terr := twin.Update(ctx, delta)
				t2 := time.Now()
				rec.add(op, 0, op, "update", "spam", t1, t2)
				traced = append(traced, ms(t2.Sub(t1)))
				spent += t2.Sub(t1)
				if terr != nil || !tin.Completeness.Complete {
					ok = false
				} else {
					if ok && !spam.SameOutputs(in, tin) {
						o.mismatch("%s update %d: traced and untraced sessions differ", name, j)
					}
					phs := tr.take()
					phaseLayers(ls, phs)
					ls.add("spam.serial_ms", ms(t2.Sub(t1)-runnerWall(phs)))
					for k, v := range map[string]int{"reused": trep.Reused, "rerun": trep.Rerun,
						"fresh": trep.Fresh, "dropped": trep.Dropped, "seeds_diffed": trep.SeedsDiffed} {
						ls.add("spam.session."+k, float64(v))
					}
					reused += float64(trep.Reused)
					tasks += float64(trep.Tasks)
					// The memo counters are lifetime totals; report each
					// update's increment.
					g := trep.Geo
					hits, misses := float64(g.Hits-geoPrev.Hits), float64(g.Misses-geoPrev.Misses)
					ls.add("geom.memo_hits", hits)
					ls.add("geom.memo_misses", misses)
					ls.add("geom.memo_evictions", float64(g.Evictions-geoPrev.Evictions))
					ls.add("geom.memo_hit_ratio", ratio(hits, hits+misses))
					geoPrev = g
				}
			}
			l.done(d, ok, sessionLimit)
		}
		retained = append(retained, float64(liveHeap())/1e6)
	}
	o.finish(setup, &l)
	// Each session holds its own scene's engines; the median over the
	// sessions does not hang on the last scene drawn.
	o.e2e["retained_heap_mb"] = median(retained)
	runtime.KeepAlive(sess)
	runtime.KeepAlive(twin)
	if c.trace {
		ls.into(o)
		o.layer["spam.session.reuse_ratio"] = ratio(reused, tasks)
		o.layer["spam.session.update_instr"] = updInstr
		o.layer["trace.overhead_ms"] = overhead(traced, plain, 1)
		selfLayerMetrics(o, rec, len(traced))
		o.rec = rec
	}
	o.timing("update_p50_ms", "ms", l.lat)
	o.line("%-22s %12d %-5s sessions of %d updates; %d updates checked against a from-scratch interpretation",
		"sessions", len(setup), "count", sessionUpdates, checks)
	o.commonLines()
	return o, nil
}
