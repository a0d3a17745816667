package spam

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"spampsm/internal/faults"
	"spampsm/internal/ops5"
	"spampsm/internal/scene"
	"spampsm/internal/stats"
	"spampsm/internal/tlp"
)

// LispFactor converts the optimized C/ParaOPS5 baseline's simulated
// time to the original Lisp implementation's time scale. The paper
// reports the port bought "approximately a 10-20 fold speed-up"; the
// Lisp-era Tables 1-3 are reproduced by applying this factor.
const LispFactor = 15.0

// Dataset bundles a scene with its knowledge base and compiled phase
// programs.
type Dataset struct {
	Name  string
	KB    *KB
	Scene *scene.Scene
	Store *RegionStore
	Progs *Programs
}

// NewDataset generates an airport dataset.
func NewDataset(p scene.Params) (*Dataset, error) {
	s := scene.Generate(p)
	return datasetFrom(s, AirportKB())
}

// NewSuburbanDataset generates a suburban dataset.
func NewSuburbanDataset(p scene.SuburbanParams) (*Dataset, error) {
	s := scene.GenerateSuburban(p)
	return datasetFrom(s, SuburbanKB())
}

func datasetFrom(s *scene.Scene, kb *KB) (*Dataset, error) {
	progs, err := BuildPrograms(kb)
	if err != nil {
		return nil, err
	}
	return NewDatasetWith(s, kb, progs), nil
}

// NewDatasetWith builds a dataset over an existing scene, knowledge
// base and already-compiled phase programs. Sharing one Programs
// across many datasets shares the programs' compiled Rete templates
// and per-variant caches: a long-running server pays rule compilation
// once per knowledge base, not once per scene or per request.
func NewDatasetWith(s *scene.Scene, kb *KB, progs *Programs) *Dataset {
	return &Dataset{
		Name:  s.Name,
		KB:    kb,
		Scene: s,
		Store: NewRegionStore(s),
		Progs: progs,
	}
}

// PhaseRun is the statistics of one interpretation phase.
type PhaseRun struct {
	Phase      string
	Tasks      int
	Firings    int
	RHSActions int
	Instr      float64 // total simulated instructions
	MatchInstr float64
	Hypotheses int
	Results    []*tlp.Result
	// Report is the phase's fault-handling accounting: attempts,
	// retries, quarantines. Clean phases have a clean report.
	Report *tlp.RunReport
	// Modeled memory (ops5.MemStats units): the largest single task's
	// peak footprint and the phase's total seed working memory.
	PeakTaskBytes float64
	SeedBytes     float64
}

// MatchFraction returns the phase's match fraction of total time.
func (p PhaseRun) MatchFraction() float64 {
	if p.Instr == 0 {
		return 0
	}
	return p.MatchInstr / p.Instr
}

// Completeness records how much of the decomposition's work survived
// into an interpretation. A clean run is Complete with zero failures;
// a degraded run (tasks exhausted their retries under
// InterpretOptions.Degraded) is still a valid interpretation — every
// hypothesis in it was produced by a successful task — but an
// explicitly partial one, assembled from the surviving tasks only.
type Completeness struct {
	Complete  bool `json:"complete"`
	Tasks     int  `json:"tasks"`     // tasks attempted across all phases
	Failed    int  `json:"failed"`    // quarantined / exhausted retries
	Cancelled int  `json:"cancelled"` // abandoned to context cancellation
	// FailedTasks lists the failed (non-cancelled) task IDs in queue
	// order, so a degraded result names exactly what is missing.
	FailedTasks []string `json:"failedTasks,omitempty"`
}

// Interpretation is the result of a full four-phase run.
type Interpretation struct {
	Dataset     *Dataset
	Phases      []PhaseRun // RTF, LCC, FA, MODEL
	Fragments   []*Fragment
	Pairs       []ConsistentPair
	Outcomes    []LCCOutcome
	FAs         []FunctionalArea
	Predictions []Prediction
	Model       Model
	ModelFound  bool
	// Completeness reports whether every task of every phase
	// contributed (see InterpretOptions.Degraded).
	Completeness Completeness
	// MemSched is the run's memory-gate accounting — budget,
	// reservation high-water mark, throttle waits — accumulated over
	// all phases. Zero when the run was unbounded or a serving Runner
	// executed the phases (the gate then belongs to the shared pool).
	MemSched tlp.MemSchedStats
}

// Phase returns the named phase run (RTF/LCC/FA/MODEL), or nil.
func (in *Interpretation) Phase(name string) *PhaseRun {
	for i := range in.Phases {
		if in.Phases[i].Phase == name {
			return &in.Phases[i]
		}
	}
	return nil
}

// TotalFirings sums firings over all phases.
func (in *Interpretation) TotalFirings() int {
	n := 0
	for _, p := range in.Phases {
		n += p.Firings
	}
	return n
}

// TotalInstr sums simulated instructions over all phases.
func (in *Interpretation) TotalInstr() float64 {
	var t float64
	for _, p := range in.Phases {
		t += p.Instr
	}
	return t
}

// Recovery sums the phases' fault-handling accounting.
func (in *Interpretation) Recovery() stats.Recovery {
	var rec stats.Recovery
	for _, p := range in.Phases {
		if p.Report != nil {
			rec.Add(p.Report.Recovery())
		}
	}
	return rec
}

// Runner executes one phase's task queue. *tlp.Pool-backed private
// runners are the default; a serving layer passes a runner that
// submits to a process-wide tlp.SharedPool so every concurrent
// request's tasks multiplex onto one worker set.
type Runner interface {
	RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error)
}

// poolRunner is the private-pool Runner built when InterpretOptions
// carries no Runner: one pool per interpretation, optional parallel
// engine prebuild before each phase.
type poolRunner struct {
	pool     *tlp.Pool
	prebuild bool
	builders int
}

func (pr *poolRunner) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	if pr.prebuild {
		pr.pool.Prebuild(tasks, pr.builders)
	}
	return pr.pool.RunContext(ctx, tasks)
}

// InterpretOptions configure a full run.
type InterpretOptions struct {
	Workers  int   // task processes for the real pool (default 1)
	Level    Level // LCC decomposition level (default Level3)
	RTFBatch int   // regions per RTF task (default 3)
	// ReEntry enables the FA→LCC re-entry of the paper: functional-area
	// predictions hypothesize fragments on unclassified regions, which
	// are then re-checked by the LCC rules.
	ReEntry bool
	Capture bool // per-activation capture for match-parallel simulation
	// Prebuild constructs each phase's task engines in parallel (on
	// Workers builders) before the pool runs them, overlapping engine
	// construction instead of paying it serially inside each task's
	// first attempt. Ignored when Runner is set.
	Prebuild bool

	// Runner, when non-nil, executes every phase's task queue instead
	// of a private pool — the serving path, where all requests share
	// one tlp.SharedPool. Workers/Prebuild and the fault-tolerance
	// knobs below then configure the runner's own submission, not a
	// pool built here.
	Runner Runner

	// Degraded switches the result assembler to partial-failure
	// tolerance: a phase with quarantined tasks no longer aborts the
	// interpretation; the phase's outputs are assembled from the
	// surviving tasks and the loss is recorded in
	// Interpretation.Completeness. Cancellation still aborts.
	Degraded bool

	// Fault tolerance (see docs/ROBUSTNESS.md). Zero values mean no
	// injection, no timeout and no retries — the pre-fault behavior.
	Faults       *faults.Plan  // deterministic fault injection; nil = none
	MaxRetries   int           // failed-task re-executions before quarantine
	TaskTimeout  time.Duration // per-attempt wall-clock deadline; 0 = none
	RetryBackoff time.Duration // delay before the first retry (doubles after)
	FiringBudget int           // per-task firing deadline; 0 = none

	// Memory-aware scheduling (see docs/PERFORMANCE.md). Sched orders
	// every phase's task queue — fifo, largest or postorder — and
	// MemBudget bounds the aggregate modeled footprint in flight
	// (simulated bytes; 0 = unbounded). Per-task results are
	// byte-identical under every policy and budget; only order and
	// timing change. With a Runner, Sched still orders each
	// submission's queue, but the memory budget belongs to the shared
	// pool behind the runner and MemBudget here is ignored.
	Sched     tlp.QueuePolicy
	MemBudget float64
}

func phaseStats(name string, results []*tlp.Result, hypotheses int) PhaseRun {
	p := PhaseRun{Phase: name, Tasks: len(results), Hypotheses: hypotheses, Results: results,
		Report: tlp.Report(results)}
	for _, r := range results {
		if r == nil || r.Err != nil {
			continue
		}
		p.Firings += r.Stats.Firings
		p.RHSActions += r.Stats.RHSActions
		p.Instr += r.Stats.TotalInstr()
		p.MatchInstr += r.Stats.MatchInstr + r.Stats.InitInstr
		if r.Log != nil {
			if r.Log.Mem.PeakBytes > p.PeakTaskBytes {
				p.PeakTaskBytes = r.Log.Mem.PeakBytes
			}
			p.SeedBytes += r.Log.Mem.SeedBytes
		}
	}
	return p
}

// withDefaults fills the zero-valued decomposition and pool knobs: one
// task process, Level 3, three regions per RTF task.
func (opt InterpretOptions) withDefaults() InterpretOptions {
	if opt.Workers < 1 {
		opt.Workers = 1
	}
	if opt.Level == 0 {
		opt.Level = Level3
	}
	if opt.RTFBatch < 1 {
		opt.RTFBatch = 3
	}
	return opt
}

// newPoolRunner builds the private pool of a run without a Runner. The
// builder count follows the machine, not opt.Workers: engine
// construction happens outside the simulated clock, so even the
// paper's one-task-process baseline may overlap it across every
// available CPU.
func newPoolRunner(opt InterpretOptions) *poolRunner {
	return &poolRunner{
		pool: &tlp.Pool{
			Workers:      opt.Workers,
			Policy:       opt.Sched,
			MemBudget:    opt.MemBudget,
			Faults:       opt.Faults,
			MaxRetries:   opt.MaxRetries,
			TaskTimeout:  opt.TaskTimeout,
			RetryBackoff: opt.RetryBackoff,
			FiringBudget: opt.FiringBudget,
		},
		prebuild: opt.Prebuild,
		builders: max(opt.Workers, runtime.GOMAXPROCS(0)),
	}
}

// Interpret runs the full four-phase SPAM interpretation of the
// dataset: RTF → LCC → FA (with optional LCC re-entry) → MODEL.
func (d *Dataset) Interpret(opt InterpretOptions) (*Interpretation, error) {
	return d.InterpretContext(context.Background(), opt)
}

// InterpretContext is Interpret with request-scoped control: the
// context cancels in-flight tasks cooperatively (a cancelled
// interpretation aborts between — and inside — phases), and the
// options' Runner/Degraded fields select the serving behaviors. With a
// background context, no Runner and Degraded off, it is byte-for-byte
// the classic Interpret.
func (d *Dataset) InterpretContext(ctx context.Context, opt InterpretOptions) (*Interpretation, error) {
	opt = opt.withDefaults()
	runner := opt.Runner
	if runner == nil {
		runner = newPoolRunner(opt)
	}
	return d.interpret(ctx, opt, runner, nil)
}

// interpret is the one phase sequence behind every interpretation:
// RTF → LCC → FA → (FA→LCC re-entry) → MODEL over the dataset's
// current scene, each phase's queue drained by the runner. A Session
// passes its per-run hook; a one-shot run passes nil, so it queries a
// transient partner index, runs every task with lazily assembled seeds
// and releases engines once their outputs are extracted.
func (d *Dataset) interpret(ctx context.Context, opt InterpretOptions, runner Runner, hook *sessionRun) (*Interpretation, error) {
	in := &Interpretation{Dataset: d}
	if pr, ok := runner.(*poolRunner); ok {
		defer func() { in.MemSched = pr.pool.MemSched() }()
	}
	// runPhase runs and settles one queue; an aborted phase is recorded
	// under the PhaseRun name stat.
	runPhase := func(name, stat string, specs []taskSpec) ([]*tlp.Result, error) {
		var results []*tlp.Result
		var err error
		switch {
		case len(specs) == 0:
			// A degraded upstream phase may leave a later phase with no
			// tasks at all; that is an empty phase, not an error.
		case hook != nil:
			results, err = hook.run(ctx, runner, specs)
		default:
			results, err = runner.RunTasks(ctx, specTasks(specs, d.Store, opt.Capture))
		}
		if err != nil {
			return nil, fmt.Errorf("spam: %s: %w", name, err)
		}
		if err := settlePhase(ctx, in, opt.Degraded, name, results); err != nil {
			in.Phases = append(in.Phases, phaseStats(stat, results, 0))
			return nil, err
		}
		return results, nil
	}
	release := func(results []*tlp.Result) {
		if hook == nil {
			releaseEngines(results)
		}
	}

	// Phase 1: RTF.
	rtf, err := runPhase("RTF", "RTF", rtfSpecs(d.Store, d.Progs.RTF, opt.RTFBatch))
	if err != nil {
		return in, err
	}
	in.Fragments = ExtractFragments(rtf)
	release(rtf)
	in.Phases = append(in.Phases, phaseStats("RTF", rtf, len(in.Fragments)))

	// Phase 2: LCC.
	var query partnerQuery
	if hook != nil {
		query = hook.partners(in.Fragments)
	} else {
		query = poolQuery(d.Store, in.Fragments)
	}
	lcc, err := runPhase("LCC", "LCC", lccSpecs(d.KB, d.Store, d.Progs.LCC, in.Fragments, query, opt.Level, false))
	if err != nil {
		return in, err
	}
	in.Pairs, in.Outcomes = ExtractLCC(lcc)
	release(lcc)

	// Phase 3: FA.
	fa, err := runPhase("FA", "FA", faSpecs(d.KB, d.Store, d.Progs.FA, in.Fragments, in.Pairs, in.Outcomes))
	if err != nil {
		return in, err
	}
	in.FAs, in.Predictions = ExtractFA(fa)
	release(fa)

	// FA→LCC re-entry: predictions hypothesize fragments on regions
	// that RTF left unclassified; LCC re-checks only those, against the
	// full fragment pool. Their cost is attributed to the LCC phase,
	// where the paper accounts it. The pool holds fragments a session's
	// persistent grid does not, so partners come from a transient index.
	if opt.ReEntry && len(in.Predictions) > 0 {
		if extra := d.reEntryFragments(in); len(extra) > 0 {
			pool := append(append([]*Fragment(nil), in.Fragments...), extra...)
			specs := lccSpecs(d.KB, d.Store, d.Progs.LCC, extra, poolQuery(d.Store, pool), opt.Level, true)
			if len(specs) > 0 {
				re, err := runPhase("LCC re-entry", "LCC", specs)
				if err != nil {
					return in, err
				}
				rePairs, reOuts := ExtractLCC(re)
				release(re)
				in.Pairs = append(in.Pairs, rePairs...)
				in.Outcomes = append(in.Outcomes, reOuts...)
				in.Fragments = append(in.Fragments, extra...)
				lcc = append(lcc, re...)
			}
		}
	}
	in.Phases = append(in.Phases, phaseStats("LCC", lcc, countConsistent(in.Outcomes)))
	in.Phases = append(in.Phases, phaseStats("FA", fa, countClosed(in.FAs)))

	// Phase 4: MODEL.
	model, err := runPhase("MODEL", "MODEL", []taskSpec{modelSpec(d.Store, d.Progs.Model, in.Fragments, in.FAs)})
	if err != nil {
		return in, err
	}
	// A degraded run whose single MODEL task failed still returns: the
	// extractor sees no model WMEs and ModelFound stays false.
	in.Model, in.ModelFound = ExtractModel(model)
	release(model)
	nModels := 0
	if in.ModelFound {
		nModels = 1
	}
	in.Phases = append(in.Phases, phaseStats("MODEL", model, nModels))
	in.Completeness.Complete = in.Completeness.Failed == 0 && in.Completeness.Cancelled == 0
	return in, nil
}

// settlePhase settles one phase's results into the interpretation's
// completeness accounting and decides whether the run continues:
// cancellation always aborts; quarantined tasks abort unless the run
// is degraded, in which case the phase's surviving outputs stand and
// the loss is recorded.
func settlePhase(ctx context.Context, in *Interpretation, degraded bool, name string, results []*tlp.Result) error {
	for _, r := range results {
		if r == nil {
			continue
		}
		in.Completeness.Tasks++
		if r.Err == nil {
			continue
		}
		if r.Cancelled {
			in.Completeness.Cancelled++
		} else {
			in.Completeness.Failed++
			in.Completeness.FailedTasks = append(in.Completeness.FailedTasks, r.TaskID)
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("spam: %s: interpretation cancelled: %w", name, err)
	}
	if degraded {
		return nil
	}
	return phaseError(name, results)
}

// phaseError aggregates every failed (quarantined) task of a phase
// into one error, in queue order. A phase with retried-but-recovered
// tasks is not an error — recovery is the point.
func phaseError(name string, results []*tlp.Result) error {
	errs := tlp.Errors(results)
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("spam: %s: %d of %d tasks failed: %w",
		name, len(errs), len(results), errors.Join(errs...))
}

// reEntryFragments hypothesizes fragments for FA predictions over
// regions that have no interpretation yet.
func (d *Dataset) reEntryFragments(in *Interpretation) []*Fragment {
	classified := map[int]bool{}
	maxID := 0
	for _, f := range in.Fragments {
		classified[f.RegionID] = true
		if f.ID > maxID {
			maxID = f.ID
		}
	}
	seedRegion := map[int]int{} // fa seed fragment -> region
	for _, f := range in.Fragments {
		seedRegion[f.ID] = f.RegionID
	}
	var out []*Fragment
	seen := map[int]bool{}
	for _, p := range in.Predictions {
		sr := d.Store.Get(seedRegion[p.FA])
		if sr == nil {
			continue
		}
		// Cached bboxes: same booleans as Poly.BBox() per call.
		bb := d.Store.Derived(sr.ID).BBox.Expand(1000)
		for _, r := range d.Scene.Regions {
			if classified[r.ID] || seen[r.ID] {
				continue
			}
			if bb.Intersects(d.Store.Derived(r.ID).BBox) {
				seen[r.ID] = true
				maxID++
				out = append(out, &Fragment{
					ID: maxID, RegionID: r.ID, Type: p.Kind, Conf: 30,
				})
			}
		}
	}
	return out
}

// releaseEngines frees the engines of completed results once their
// outputs have been extracted; the phase statistics only need the
// stats and cost logs.
func releaseEngines(results []*tlp.Result) {
	for _, r := range results {
		if r != nil {
			r.Engine = nil
		}
	}
}

func countConsistent(outs []LCCOutcome) int {
	n := 0
	for _, o := range outs {
		if o.Status == "consistent" {
			n++
		}
	}
	return n
}

func countClosed(fas []FunctionalArea) int {
	n := 0
	for _, f := range fas {
		if f.Status == "closed" {
			n++
		}
	}
	return n
}

// TaskLogs converts completed results to cost logs for the machine
// simulator, in queue order.
func TaskLogs(results []*tlp.Result) []*ops5.CostLog {
	var logs []*ops5.CostLog
	for _, r := range results {
		if r != nil && r.Err == nil && r.Log != nil {
			logs = append(logs, r.Log)
		}
	}
	return logs
}
