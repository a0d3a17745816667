package main

import (
	"time"
)

// layerSamples collects per-operation values of per-layer metrics; the
// reported value of each is its median over the traced operations.
type layerSamples map[string][]float64

func (ls layerSamples) add(name string, v float64) { ls[name] = append(ls[name], v) }

// into stores the medians in the outcome.
func (ls layerSamples) into(o *outcome) {
	for k, xs := range ls {
		o.layer[k] = median(xs)
	}
}

// phaseLayers adds one operation's tlp and ops5 metrics, computed from
// its traced phases.
func phaseLayers(ls layerSamples, phs []phaseTiming) {
	wall := map[string]time.Duration{}
	var waits []float64
	var busy, capacity, tail, build, runT time.Duration
	var initI, matchI, resolveI, actI, peak, seedB float64
	var builds, tasks, attempts, retries, quarantined, firings, cycles int
	for _, ph := range phs {
		w := ph.end.Sub(ph.start)
		wall[ph.phase] += w
		capacity += w * time.Duration(ph.workers)
		tail += tailEnd(ph)
		for _, tt := range ph.tasks {
			if tt.start.IsZero() || tt.res == nil {
				continue
			}
			waits = append(waits, ms(tt.start.Sub(ph.start)))
			busy += tt.end.Sub(tt.start)
			if !tt.buildEnd.IsZero() {
				builds++
				build += tt.buildEnd.Sub(tt.buildStart)
				runT += tt.end.Sub(tt.buildEnd)
			}
			r := tt.res
			tasks++
			attempts += r.Attempts
			if r.Attempts > 1 {
				retries += r.Attempts - 1
			}
			if r.Quarantined {
				quarantined++
			}
			initI += r.Stats.InitInstr
			matchI += r.Stats.MatchInstr
			resolveI += r.Stats.ResolveInstr
			actI += r.Stats.ActInstr
			firings += r.Stats.Firings
			cycles += r.Stats.Cycles
			if r.Log != nil {
				peak = max(peak, r.Log.Mem.PeakBytes)
				seedB += r.Log.Mem.SeedBytes
			}
		}
	}
	for _, p := range phases {
		ls.add("tlp.phase_ms."+p, ms(wall[p]))
	}
	ls.add("tlp.queue_wait_ms.p50", median(waits))
	ls.add("tlp.queue_wait_ms.p90", percentile(waits, 90))
	ls.add("tlp.tail_ms", ms(tail))
	ls.add("tlp.utilization", ratio(float64(busy), float64(capacity)))
	ls.add("tlp.tasks", float64(tasks))
	ls.add("tlp.attempts", float64(attempts))
	ls.add("tlp.retries", float64(retries))
	ls.add("tlp.quarantined", float64(quarantined))
	ls.add("ops5.build_ms", ms(build))
	ls.add("ops5.run_ms", ms(runT))
	ls.add("ops5.builds", float64(builds))
	ls.add("ops5.init_instr", initI)
	ls.add("ops5.match_instr", matchI)
	ls.add("ops5.resolve_instr", resolveI)
	ls.add("ops5.act_instr", actI)
	ls.add("ops5.firings", float64(firings))
	ls.add("ops5.cycles", float64(cycles))
	ls.add("ops5.ns_per_init_instr", ratio(float64(build), initI))
	ls.add("ops5.ns_per_run_instr", ratio(float64(runT), matchI+resolveI+actI))
	ls.add("ops5.peak_task_bytes", peak)
	ls.add("ops5.seed_bytes", seedB)
}

// runnerWall is the summed wall of an operation's phase calls.
func runnerWall(phs []phaseTiming) time.Duration {
	var d time.Duration
	for _, ph := range phs {
		d += ph.end.Sub(ph.start)
	}
	return d
}

// selfLayerMetrics adds the per-operation self time of every span layer.
func selfLayerMetrics(o *outcome, rec *recorder, ops int) {
	self := selfTimes(rec.snapshot())
	for _, l := range selfLayers {
		o.layer["self_ms."+l] = ratio(ms(self[l]), float64(ops))
	}
}
