package main

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spampsm/internal/ops5"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// phases are the four interpretation phases, in pipeline order.
var phases = []string{"RTF", "LCC", "FA", "MODEL"}

// phaseOf names a task queue's phase from its task IDs, which spam
// prefixes with the phase ("rtf-", "lcc<level>-", "fa-", "model-").
func phaseOf(tasks []*tlp.Task) string {
	if len(tasks) == 0 {
		return "?"
	}
	id := tasks[0].ID
	for _, p := range phases {
		if strings.HasPrefix(id, strings.ToLower(p)) {
			return p
		}
	}
	return "?"
}

// taskTiming is one task's wall clock inside a traced phase.
type taskTiming struct {
	start, buildStart, buildEnd, end time.Time
	res                              *tlp.Result
}

// phaseTiming is one traced RunTasks call.
type phaseTiming struct {
	phase      string
	workers    int
	start, end time.Time
	tasks      []taskTiming
}

// tracedRunner is the traced run's spam.Runner: it dispatches each
// phase queue itself through the public tlp.Pool.RunOne on a fixed
// number of worker goroutines, wrapping every task's engine build, so
// queue wait, build, recognize-act and the phase tail become visible
// without touching the program.
type tracedRunner struct {
	pool    *tlp.Pool
	workers int
	rec     *recorder

	mu         sync.Mutex
	op, parent int64
	timings    []phaseTiming
}

func newTracedRunner(workers int, rec *recorder) *tracedRunner {
	return &tracedRunner{pool: &tlp.Pool{Workers: workers}, workers: workers, rec: rec}
}

// begin starts a new operation: later phases are recorded under parent
// with operation id op.
func (r *tracedRunner) begin(op, parent int64) {
	r.mu.Lock()
	r.op, r.parent, r.timings = op, parent, nil
	r.mu.Unlock()
}

// take returns the phases recorded since begin.
func (r *tracedRunner) take() []phaseTiming {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.timings
}

// RunTasks implements spam.Runner.
func (r *tracedRunner) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	r.mu.Lock()
	op, parent := r.op, r.parent
	r.mu.Unlock()
	ph := phaseTiming{phase: phaseOf(tasks), workers: r.workers, tasks: make([]taskTiming, len(tasks))}
	phaseID := r.rec.id()
	results := make([]*tlp.Result, len(tasks))
	ph.start = time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(tasks) {
					return
				}
				tt := &ph.tasks[i]
				taskID := r.rec.id()
				t := timedBuild(tasks[i], tt)
				tt.start = time.Now()
				tt.res = r.pool.RunOne(ctx, t, w, i, 1)
				tt.end = time.Now()
				results[i] = tt.res
				r.rec.add(taskID, phaseID, op, "task", "tlp", tt.start, tt.end)
				if !tt.buildEnd.IsZero() {
					r.rec.add(0, taskID, op, "build", "ops5", tt.buildStart, tt.buildEnd)
					r.rec.add(0, taskID, op, "run", "ops5", tt.buildEnd, tt.end)
				}
			}
		}(w)
	}
	wg.Wait()
	ph.end = time.Now()
	r.rec.add(phaseID, parent, op, "phase:"+ph.phase, "tlp", ph.start, ph.end)
	r.mu.Lock()
	r.timings = append(r.timings, ph)
	r.mu.Unlock()
	return results, nil
}

// timedBuild returns a copy of t whose engine build records its wall
// clock into tt (the final attempt's build, when a task retries).
func timedBuild(t *tlp.Task, tt *taskTiming) *tlp.Task {
	c := *t
	build := t.BuildWith
	if build == nil {
		b := t.Build
		build = func(*ops5.Scratch) (*ops5.Engine, error) { return b() }
	}
	c.BuildWith = func(s *ops5.Scratch) (*ops5.Engine, error) {
		tt.buildStart = time.Now()
		e, err := build(s)
		tt.buildEnd = time.Now()
		return e, err
	}
	c.Build = func() (*ops5.Engine, error) { return c.BuildWith(nil) }
	return &c
}

// phaseTimer is a spam.Runner that only times each phase call of an
// inner runner: the cluster workload's per-phase wall clock, and its
// in-process comparison.
type phaseTimer struct {
	inner spam.Runner
	wall  map[string]time.Duration
	rec   *recorder
	op    int64  // the operation's span, parent of the phase spans
	layer string // span layer of the phase calls
}

func (p *phaseTimer) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	t0 := time.Now()
	res, err := p.inner.RunTasks(ctx, tasks)
	t1 := time.Now()
	p.wall[phaseOf(tasks)] += t1.Sub(t0)
	p.rec.add(0, p.op, p.op, "phase:"+phaseOf(tasks), p.layer, t0, t1)
	return res, err
}

// privatePool runs a queue on a private tlp.Pool, as an interpretation
// without a Runner does.
type privatePool struct{ pool *tlp.Pool }

func (p privatePool) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	return p.pool.RunContext(ctx, tasks)
}

// tailEnd is the paper's tail-end effect for one phase: the time at
// the end of the phase during which fewer than workers tasks were
// busy. It runs from the last moment at least workers tasks were busy
// (or the phase start, if that never happened) to the phase end.
func tailEnd(ph phaseTiming) time.Duration {
	type ev struct {
		t     time.Time
		delta int
	}
	var evs []ev
	for _, tt := range ph.tasks {
		if tt.start.IsZero() {
			continue
		}
		evs = append(evs, ev{tt.start, +1}, ev{tt.end, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if !evs[i].t.Equal(evs[j].t) {
			return evs[i].t.Before(evs[j].t)
		}
		return evs[i].delta < evs[j].delta // ends first at ties
	})
	full := ph.start
	busy := 0
	for _, e := range evs {
		if busy >= ph.workers && e.delta < 0 {
			full = e.t
		}
		busy += e.delta
	}
	if ph.end.Before(full) {
		return 0
	}
	return ph.end.Sub(full)
}
