package spam

import (
	"fmt"
	"sort"
	"sync/atomic"

	"spampsm/internal/ops5"
	"spampsm/internal/rete"
	"spampsm/internal/scene"
	"spampsm/internal/symtab"
	"spampsm/internal/tlp"
	"spampsm/internal/wm"
)

// Level is the LCC decomposition level of Section 4: Level 4 = one
// task per object class, Level 3 = per object, Level 2 = per
// (object, constraint), Level 1 = per (object, constraint, component).
type Level int

// Decomposition levels.
const (
	Level1 Level = 1
	Level2 Level = 2
	Level3 Level = 3
	Level4 Level = 4
)

// sym shortens symbol construction in WM assembly.
func sym(s string) symtab.Value { return symtab.Sym(s) }

// taskMemEst models a task's peak footprint from the number of WMEs
// it is expected to hold — seeds plus produced hypotheses — charging
// each a nominal 8-slot WME plus one beta-token allowance, in the
// same simulated-byte units as ops5.MemStats.PeakBytes. The estimate
// feeds the schedulers (tlp.Task.MemEst) at queue-build time, before
// any engine exists; the measured PeakBytes replaces it wherever a
// cost log is available (machine.Specs).
func taskMemEst(wmes int) float64 {
	return float64(wmes) * (wm.WMEBytes(8) + rete.TokenBytes)
}

// naiveMatch selects the unindexed reference matcher for every engine
// the package builds (see UseNaiveMatch).
var naiveMatch atomic.Bool

// UseNaiveMatch switches all subsequently built task engines between
// the default equality-indexed Rete matcher (false) and the unindexed
// reference matcher (true). The two are observably identical — the
// differential oracle proves byte-identical Counters and firing
// sequences on the full SPAM rule set — so the toggle exists for that
// oracle and for benchmarking the indexed matcher's wall-clock win.
// It is process-global because task builders capture engine
// construction in closures that run on worker pools.
func UseNaiveMatch(on bool) { naiveMatch.Store(on) }

// freshCompile forces every engine the package builds to bypass the
// Program's compiled-variant cache (see UseFreshCompile).
var freshCompile atomic.Bool

// UseFreshCompile switches all subsequently built task engines between
// template instantiation from the Program's shared compile cache (the
// default) and a private fresh compilation per engine. The two are
// observably identical — the full-SPAM differential oracle proves
// byte-identical phase results, firings and instruction counts — so
// the toggle exists for that oracle; fresh compilation is strictly
// slower. Process-global for the same reason as UseNaiveMatch.
func UseFreshCompile(on bool) { freshCompile.Store(on) }

// unbatchedSeed forces every engine the package builds onto the
// per-WME seed-assertion path (see UseUnbatchedSeed).
var unbatchedSeed atomic.Bool

// UseUnbatchedSeed switches all subsequently built task engines between
// batched seed distribution with memoized alpha routing (the default)
// and the reference per-WME Assert path. The two are observably
// identical — the full-SPAM differential oracle proves byte-identical
// phase results, firings and instruction counts — so the toggle exists
// for that oracle and for benchmarking the batched path's wall-clock
// win. Process-global for the same reason as UseNaiveMatch.
func UseUnbatchedSeed(on bool) { unbatchedSeed.Store(on) }

// uncachedGeo selects the reference geometry path everywhere the
// package would otherwise use cached or indexed spatial state (see
// UseUncachedGeo).
var uncachedGeo atomic.Bool

// UseUncachedGeo switches subsequent geometry work between the default
// fast path — the RegionStore's spatial-predicate memo, derived
// per-region geometry in relation evaluation, and the uniform-grid
// partner index — and the reference path that re-evaluates every
// predicate per call with per-call Polygon methods and scans all
// fragments per partner search. The two are observably identical —
// the full-SPAM differential oracle proves byte-identical phase
// results, firings, instruction counts and consistency pairs — so the
// toggle exists for that oracle and for benchmarking. Combine with
// geom.UseExactOnly to reproduce the pre-fast-path kernels exactly.
// Process-global for the same reason as UseNaiveMatch.
func UseUncachedGeo(on bool) { uncachedGeo.Store(on) }

// engineOpts builds the engine options for a task.
func engineOpts(capture bool) []ops5.Option {
	var opts []ops5.Option
	if capture {
		opts = append(opts, ops5.WithCapture())
	}
	if naiveMatch.Load() {
		opts = append(opts, ops5.WithNaiveMatch())
	}
	if freshCompile.Load() {
		opts = append(opts, ops5.WithFreshCompile())
	}
	if unbatchedSeed.Load() {
		opts = append(opts, ops5.WithPerWMEAssert())
	}
	return opts
}

// newTaskEngine constructs one task engine with the store's externals
// registered, threading the worker's allocation scratch (nil outside
// DropEngines pools) into the engine's free lists.
func newTaskEngine(store *RegionStore, prog *ops5.Program, capture bool, s *ops5.Scratch) (*ops5.Engine, error) {
	opts := engineOpts(capture)
	if s != nil {
		opts = append(opts, ops5.WithScratch(s))
	}
	e, err := ops5.NewEngine(prog, opts...)
	if err != nil {
		return nil, err
	}
	store.Register(e)
	return e, nil
}

// seedSet accumulates a task's seed working memory in assertion order;
// the builder hands the whole set to Engine.AssertBatch at once.
// Fragment rows — the WMEs that recur across overlapping tasks — go
// through the RegionStore's shared-seed cache, so a fragment's value
// vector and routing digest are computed once per scene, not once per
// task.
type seedSet struct {
	prog  *ops5.Program
	store *RegionStore
	seeds []ops5.Seed
}

// add appends one plain (task-local) seed row.
func (ss *seedSet) add(class string, sets map[string]symtab.Value) error {
	sc, err := ss.prog.SeedClass(class)
	if err != nil {
		return err
	}
	s, err := sc.Seed(sets)
	if err != nil {
		return err
	}
	ss.seeds = append(ss.seeds, s)
	return nil
}

// addFragment appends a fragment hypothesis row, shared through the
// scene's seed cache.
func (ss *seedSet) addFragment(f *Fragment) error {
	sc, err := ss.prog.SeedClass("fragment")
	if err != nil {
		return err
	}
	s, err := ss.store.FragmentSeed(sc, f)
	if err != nil {
		return err
	}
	ss.seeds = append(ss.seeds, s)
	return nil
}

// ---------------------------------------------------------------------------
// The decomposition

// taskSpec is one task of the decomposition. Its key is stable: the
// same logical task gets the same key in a one-shot run and in every
// run of a session, which is how a session matches a task against the
// state it last ran with. The key starts with the phase prefix ("rtf-",
// "lcc<L>"/"lccr<L>", "fa-", "model-").
type taskSpec struct {
	key, label, group string
	est, mem          float64
	prog              *ops5.Program
	phase             string // wire phase: rtf, lcc, fa or model
	continues         bool   // LCC re-entry over fragments already shipped
	// seeds assembles the task's seed working memory. A one-shot run
	// calls it lazily, on the pool worker that builds the engine or
	// ships the task, so decomposing a phase assembles no seeds.
	seeds func() ([]ops5.Seed, error)
	// regions names the regions whose geometry the task's externals can
	// read beyond its seed rows; only a session's signature reads it.
	regions func() []int
}

// extractClasses names the working-memory classes each phase's result
// extraction reads — all a cluster worker ships back.
var extractClasses = map[string][]string{
	"rtf":   {"fragment"},
	"lcc":   {"check", "lcc-result"},
	"fa":    {"fa", "prediction"},
	"model": {"model"},
}

// task turns a spec into a pool task. seeds supplies the seed working
// memory whenever the engine is built or the task shipped: the spec's
// own lazy assembly, or a session's already-diffed set. warm, when
// non-nil, is a retained engine that the first attempt resets and
// reloads instead of building a fresh one. A retry rebuilds from
// scratch, keeping re-execution idempotent even if the failed attempt
// left the warm engine mid-operation.
func (sp taskSpec) task(store *RegionStore, capture bool, seeds func() ([]ops5.Seed, error), warm *ops5.Engine) *tlp.Task {
	build := func(sc *ops5.Scratch) (*ops5.Engine, error) {
		var e *ops5.Engine
		if warm != nil {
			e, warm = warm, nil
			if err := e.ResetForUpdate(); err != nil {
				return nil, err
			}
		} else {
			var err error
			if e, err = newTaskEngine(store, sp.prog, capture, sc); err != nil {
				return nil, err
			}
		}
		ss, err := seeds()
		if err != nil {
			return nil, err
		}
		if err := e.AssertBatch(ss); err != nil {
			return nil, err
		}
		return e, nil
	}
	name := store.Scene().Name
	return &tlp.Task{
		ID:        sp.key,
		Label:     sp.label,
		Group:     sp.group,
		EstSize:   sp.est,
		MemEst:    sp.mem,
		Build:     func() (*ops5.Engine, error) { return build(nil) },
		BuildWith: build,
		Wire: func() (*tlp.WireSpec, error) {
			ss, err := seeds()
			if err != nil {
				return nil, err
			}
			return &tlp.WireSpec{Dataset: name, Phase: sp.phase, Seeds: ss, Extract: extractClasses[sp.phase]}, nil
		},
		Continues: sp.continues,
	}
}

// specTasks turns specs into pool tasks that assemble their seeds
// lazily: the uncached path of a one-shot run.
func specTasks(specs []taskSpec, store *RegionStore, capture bool) []*tlp.Task {
	tasks := make([]*tlp.Task, len(specs))
	for i, sp := range specs {
		tasks[i] = sp.task(store, capture, sp.seeds, nil)
	}
	return tasks
}

// ---------------------------------------------------------------------------
// RTF phase tasks

// rtfSpecs decomposes the RTF phase: each task classifies one batch of
// regions, taken in scene order (batchID = start/batchSize). This
// yields the paper's ~60-100 tasks per dataset at roughly Level-2
// granularity. Position batching is deliberate: RTF classification
// depends on batch composition (rtf-align boosts fragment pairs within
// one task's working memory), so every run must batch the same way.
// A session pays for it when a removal shifts every later region's
// batch; RTF is the cheapest phase, so updates stay proportional to
// churn. The alignment calls read region geometry that can move while
// the quantized measurement rows stay identical, hence regions.
func rtfSpecs(store *RegionStore, prog *ops5.Program, batchSize int) []taskSpec {
	if batchSize < 1 {
		batchSize = 3
	}
	regions := store.Scene().Regions
	name := store.Scene().Name
	var specs []taskSpec
	for start := 0; start < len(regions); start += batchSize {
		batch := append([]*scene.Region(nil), regions[start:min(start+batchSize, len(regions))]...)
		batchID := start / batchSize
		specs = append(specs, taskSpec{
			key:   fmt.Sprintf("rtf-%s-%d", name, batchID),
			label: fmt.Sprintf("RTF batch %d (%d regions)", batchID, len(batch)),
			group: "rtf",
			est:   float64(len(batch)),
			mem:   taskMemEst(1 + 2*len(batch)),
			prog:  prog,
			phase: "rtf",
			seeds: func() ([]ops5.Seed, error) { return rtfSeeds(prog, store, batchID, batch) },
			regions: func() []int {
				ids := make([]int, len(batch))
				for i, r := range batch {
					ids[i] = r.ID
				}
				return ids
			},
		})
	}
	return specs
}

// BuildRTFTasks returns the RTF phase's task queue (see rtfSpecs).
func BuildRTFTasks(kb *KB, store *RegionStore, prog *ops5.Program, batchSize int, capture bool) []*tlp.Task {
	return specTasks(rtfSpecs(store, prog, batchSize), store, capture)
}

// rtfSeeds assembles one RTF task's seed working memory — the task
// control row plus a measured-region row per batch member, in
// assertion order.
func rtfSeeds(prog *ops5.Program, store *RegionStore, batchID int, regions []*scene.Region) ([]ops5.Seed, error) {
	ss := seedSet{prog: prog, store: store}
	if err := ss.add("rtf-task", map[string]symtab.Value{
		"batch": symtab.Int(int64(batchID)), "status": sym("active"),
	}); err != nil {
		return nil, err
	}
	for _, r := range regions {
		area, elong, compact, intensity, texture := store.MeasurementsOf(r)
		if err := ss.add("region", map[string]symtab.Value{
			"id":        symtab.Int(int64(r.ID)),
			"batch":     symtab.Int(int64(batchID)),
			"area":      symtab.Float(area),
			"elong":     symtab.Float(elong),
			"compact":   symtab.Float(compact),
			"intensity": symtab.Float(intensity),
			"texture":   symtab.Float(texture),
			"status":    sym("measured"),
		}); err != nil {
			return nil, err
		}
	}
	return ss.seeds, nil
}

// ExtractFragments collects the fragment hypotheses produced by RTF
// task results, ordered by fragment ID.
func ExtractFragments(results []*tlp.Result) []*Fragment {
	var frags []*Fragment
	for _, r := range results {
		if r == nil || r.Err != nil {
			continue
		}
		for _, w := range r.WMEs("fragment") {
			frags = append(frags, &Fragment{
				ID:       int(w.Get("id").IntVal()),
				RegionID: int(w.Get("region").IntVal()),
				Type:     scene.Kind(w.Get("type").SymVal()),
				Conf:     int(w.Get("conf").IntVal()),
			})
		}
	}
	sort.Slice(frags, func(i, j int) bool { return frags[i].ID < frags[j].ID })
	return frags
}

// ---------------------------------------------------------------------------
// LCC phase tasks

// lccUnit is one (focal, constraint-subset) work assignment.
type lccUnit struct {
	focal    *Fragment
	cid      string // "all" means all constraints of the class
	partners map[string][]*Fragment
	expected int
}

// partnerQuery returns the candidate partners of one focal fragment
// under one constraint, in ascending fragment-ID order.
type partnerQuery func(*Fragment, Constraint) []*Fragment

// poolQuery is the transient partner query over one fragment pool: a
// grid index built once here, or NearbyFragments' scan where the grid
// does not pay (see buildFragIndex). A session queries its persistent
// live grid instead; the candidate sets are the same.
func poolQuery(store *RegionStore, all []*Fragment) partnerQuery {
	ix := buildFragIndex(store, all)
	return func(f *Fragment, c Constraint) []*Fragment {
		if ix != nil {
			return ix.query(f, c.Object, c.Radius)
		}
		return NearbyFragments(store, f, c.Object, all, c.Radius)
	}
}

// unitsWith enumerates the work units of a decomposition level over
// the focal objects, with partners from the given query.
func unitsWith(kb *KB, focals []*Fragment, level Level, query partnerQuery) []lccUnit {
	var units []lccUnit
	for _, f := range focals {
		cons := kb.ConstraintsFor(f.Type)
		if len(cons) == 0 {
			continue
		}
		switch level {
		case Level3, Level4:
			u := lccUnit{focal: f, cid: "all", partners: map[string][]*Fragment{}}
			for _, c := range cons {
				ps := query(f, c)
				u.partners[c.ID] = ps
				u.expected += len(ps)
			}
			units = append(units, u)
		case Level2:
			for _, c := range cons {
				ps := query(f, c)
				units = append(units, lccUnit{
					focal: f, cid: c.ID,
					partners: map[string][]*Fragment{c.ID: ps},
					expected: len(ps),
				})
			}
		case Level1:
			for _, c := range cons {
				for _, p := range query(f, c) {
					units = append(units, lccUnit{
						focal: f, cid: c.ID,
						partners: map[string][]*Fragment{c.ID: {p}},
						expected: 1,
					})
				}
			}
		}
	}
	return units
}

// lccSpecs decomposes the LCC phase over the focal objects, with
// partners from the given query, at the chosen level, keyed by what
// the task checks: Level 4 by object class, Level 3 by
// focal fragment, Level 2 by (focal, constraint), Level 1 by (focal,
// constraint, partner). The same generated rule set serves every
// level: the task's scope is its working memory. FA→LCC re-entry tasks
// key under "lccr" — their fragments get pool-dependent fresh IDs —
// and continue the LCC phase over fragments the main pass shipped.
func lccSpecs(kb *KB, store *RegionStore, prog *ops5.Program, focals []*Fragment, query partnerQuery, level Level, reEntry bool) []taskSpec {
	units := unitsWith(kb, focals, level, query)
	name := store.Scene().Name
	prefix := "lcc"
	if reEntry {
		prefix = "lccr"
	}
	spec := func(key, label, group string, est int, mem float64, us []lccUnit) taskSpec {
		return taskSpec{
			key: key, label: label, group: group,
			est: float64(est), mem: mem,
			prog: prog, phase: "lcc", continues: reEntry,
			seeds:   func() ([]ops5.Seed, error) { return lccSeeds(prog, store, us) },
			regions: func() []int { return lccUnitRegions(us) },
		}
	}
	var specs []taskSpec
	if level == Level4 {
		// One task per object class. The scope WMEs keep each focal
		// object's checks identical to its Level-3 task even though the
		// class's objects share one working memory.
		byClass := map[scene.Kind][]lccUnit{}
		for _, u := range units {
			byClass[u.focal.Type] = append(byClass[u.focal.Type], u)
		}
		var classes []scene.Kind
		for k := range byClass {
			classes = append(classes, k)
		}
		sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
		for _, k := range classes {
			group := byClass[k]
			est := 0
			for _, u := range group {
				est += u.expected
			}
			specs = append(specs, spec(fmt.Sprintf("%s4-%s-%s", prefix, name, k),
				fmt.Sprintf("LCC L4 class %s (%d objects)", k, len(group)),
				string(k), est, taskMemEst(2*est+3*len(group)), group))
		}
		return specs
	}
	for _, u := range units {
		key := fmt.Sprintf("%s%d-%s-o%d", prefix, level, name, u.focal.ID)
		switch level {
		case Level2:
			key += "-" + u.cid
		case Level1:
			key += fmt.Sprintf("-%s-p%d", u.cid, u.partners[u.cid][0].ID)
		}
		specs = append(specs, spec(key,
			fmt.Sprintf("LCC L%d object %d %s (%d checks)", level, u.focal.ID, u.cid, u.expected),
			string(u.focal.Type), u.expected, taskMemEst(2*u.expected+3), []lccUnit{u}))
	}
	return specs
}

// BuildLCCTasks returns the LCC phase's task queue at the chosen level
// over a fragment pool (see lccSpecs).
func BuildLCCTasks(kb *KB, store *RegionStore, prog *ops5.Program, frags []*Fragment, level Level, capture bool) []*tlp.Task {
	return specTasks(lccSpecs(kb, store, prog, frags, poolQuery(store, frags), level, false), store, capture)
}

// lccSeeds assembles the seed working memory of a set of LCC work
// units, in assertion order: per unit, the (deduplicated) focal and
// partner fragments with their scope triples, then the support and
// task control rows.
func lccSeeds(prog *ops5.Program, store *RegionStore, units []lccUnit) ([]ops5.Seed, error) {
	ss := seedSet{prog: prog, store: store}
	seen := map[int]bool{}
	addFrag := func(f *Fragment) error {
		if seen[f.ID] {
			return nil
		}
		seen[f.ID] = true
		return ss.addFragment(f)
	}
	for _, u := range units {
		if err := addFrag(u.focal); err != nil {
			return nil, err
		}
		// Deterministic constraint order: the scope rows' assertion order
		// must be stable run-to-run so the session's seed-signature diff
		// never sees a spurious change (map iteration order is not).
		cids := make([]string, 0, len(u.partners))
		for cid := range u.partners {
			cids = append(cids, cid)
		}
		sort.Strings(cids)
		for _, cid := range cids {
			for _, p := range u.partners[cid] {
				if err := addFrag(p); err != nil {
					return nil, err
				}
				// The scope WME makes the decomposition exact: a check
				// runs iff the control process put its (object,
				// constraint, partner) triple into the task's working
				// memory, so every level computes the same checks.
				if err := ss.add("scope", map[string]symtab.Value{
					"object":     symtab.Int(int64(u.focal.ID)),
					"constraint": sym(cid),
					"partner":    symtab.Int(int64(p.ID)),
				}); err != nil {
					return nil, err
				}
			}
		}
		if err := ss.add("support", map[string]symtab.Value{
			"object": symtab.Int(int64(u.focal.ID)),
			"count":  symtab.Int(0), "checked": symtab.Int(0),
		}); err != nil {
			return nil, err
		}
		if err := ss.add("lcc-task", map[string]symtab.Value{
			"object":   symtab.Int(int64(u.focal.ID)),
			"class":    sym(string(u.focal.Type)),
			"cid":      sym(u.cid),
			"expected": symtab.Int(int64(u.expected)),
			"status":   sym("active"),
		}); err != nil {
			return nil, err
		}
	}
	return ss.seeds, nil
}

// ConsistentPair is one consistency record produced by LCC: focal
// object f and partner p satisfied the constraint's relation.
type ConsistentPair struct {
	Object   int
	Partner  int
	Relation string
}

// LCCOutcome is the per-object LCC verdict.
type LCCOutcome struct {
	Object  int
	Support int
	Checked int
	Status  string // consistent | weak
}

// ExtractLCC collects the consistency pairs and per-object outcomes
// from LCC task results.
func ExtractLCC(results []*tlp.Result) ([]ConsistentPair, []LCCOutcome) {
	var pairs []ConsistentPair
	var outs []LCCOutcome
	for _, r := range results {
		if r == nil || r.Err != nil {
			continue
		}
		for _, w := range r.WMEs("check") {
			if w.Get("result").SymVal() == "t" {
				pairs = append(pairs, ConsistentPair{
					Object:   int(w.Get("object").IntVal()),
					Partner:  int(w.Get("partner").IntVal()),
					Relation: w.Get("relation").SymVal(),
				})
			}
		}
		for _, w := range r.WMEs("lcc-result") {
			outs = append(outs, LCCOutcome{
				Object:  int(w.Get("object").IntVal()),
				Support: int(w.Get("support").IntVal()),
				Checked: int(w.Get("checked").IntVal()),
				Status:  w.Get("status").SymVal(),
			})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Object != pairs[j].Object {
			return pairs[i].Object < pairs[j].Object
		}
		return pairs[i].Partner < pairs[j].Partner
	})
	sort.Slice(outs, func(i, j int) bool { return outs[i].Object < outs[j].Object })
	return pairs, outs
}

// ---------------------------------------------------------------------------
// FA phase tasks

// FunctionalArea is one aggregated context.
type FunctionalArea struct {
	Seed     int
	Type     string
	NMembers int
	Status   string
}

// Prediction is one context-driven sub-area prediction.
type Prediction struct {
	FA         int
	Kind       scene.Kind
	Candidates int
}

// faSpecs decomposes the FA phase: one task per functional-area seed
// (a consistent fragment of a seed class), keyed by the seed fragment.
// The fa-predict-area scan reads the geometry of the seed's whole
// neighbourhood, hence regions.
func faSpecs(kb *KB, store *RegionStore, prog *ops5.Program, frags []*Fragment,
	pairs []ConsistentPair, outcomes []LCCOutcome) []taskSpec {

	byID := map[int]*Fragment{}
	for _, f := range frags {
		byID[f.ID] = f
	}
	consistent := map[int]bool{}
	for _, o := range outcomes {
		if o.Status == "consistent" {
			consistent[o.Object] = true
		}
	}
	pairsByObject := map[int][]ConsistentPair{}
	for _, p := range pairs {
		pairsByObject[p.Object] = append(pairsByObject[p.Object], p)
	}

	name := store.Scene().Name
	var specs []taskSpec
	for _, spec := range kb.FAs {
		memberKinds := map[scene.Kind]bool{}
		for _, m := range spec.Members {
			memberKinds[m] = true
		}
		for _, f := range frags {
			if f.Type != spec.Seed || !consistent[f.ID] {
				continue
			}
			// Collect the consistent member partners and the expected
			// member count (distinct partners of member classes).
			var members []*Fragment
			var memberPairs []ConsistentPair
			seen := map[int]bool{}
			for _, p := range pairsByObject[f.ID] {
				pf := byID[p.Partner]
				if pf == nil || !memberKinds[pf.Type] {
					continue
				}
				memberPairs = append(memberPairs, p)
				if !seen[pf.ID] {
					seen[pf.ID] = true
					members = append(members, pf)
				}
			}
			seed, faType := f, spec.Type
			specs = append(specs, taskSpec{
				key:   fmt.Sprintf("fa-%s-%s-%d", name, faType, f.ID),
				label: fmt.Sprintf("FA %s seed %d (%d members)", faType, f.ID, len(members)),
				group: "fa-" + string(faType),
				est:   float64(len(members) + 1),
				mem:   taskMemEst(len(members) + len(memberPairs) + 2),
				prog:  prog,
				phase: "fa",
				seeds: func() ([]ops5.Seed, error) {
					return faSeeds(prog, store, seed, members, memberPairs, faType)
				},
				regions: func() []int { return faNeighborhood(store, seed.RegionID) },
			})
		}
	}
	return specs
}

// BuildFATasks returns the FA phase's task queue (see faSpecs).
func BuildFATasks(kb *KB, store *RegionStore, prog *ops5.Program, frags []*Fragment,
	pairs []ConsistentPair, outcomes []LCCOutcome, capture bool) []*tlp.Task {
	return specTasks(faSpecs(kb, store, prog, frags, pairs, outcomes), store, capture)
}

// faSeeds assembles one FA task's seed working memory: the seed
// fragment, its member fragments, the consistency rows supporting the
// aggregation, and the task control row, in assertion order.
func faSeeds(prog *ops5.Program, store *RegionStore, seed *Fragment,
	members []*Fragment, pairs []ConsistentPair, faType string) ([]ops5.Seed, error) {

	ss := seedSet{prog: prog, store: store}
	if err := ss.addFragment(seed); err != nil {
		return nil, err
	}
	for _, m := range members {
		if err := ss.addFragment(m); err != nil {
			return nil, err
		}
	}
	for _, p := range pairs {
		if err := ss.add("consistency", map[string]symtab.Value{
			"object":   symtab.Int(int64(p.Object)),
			"partner":  symtab.Int(int64(p.Partner)),
			"relation": sym(p.Relation),
			"result":   sym("t"),
		}); err != nil {
			return nil, err
		}
	}
	if err := ss.add("fa-task", map[string]symtab.Value{
		"seed":     symtab.Int(int64(seed.ID)),
		"fatype":   sym(faType),
		"expected": symtab.Int(int64(len(pairs))),
		"status":   sym("active"),
	}); err != nil {
		return nil, err
	}
	return ss.seeds, nil
}

// ExtractFA collects the closed functional areas and predictions.
func ExtractFA(results []*tlp.Result) ([]FunctionalArea, []Prediction) {
	var fas []FunctionalArea
	var preds []Prediction
	for _, r := range results {
		if r == nil || r.Err != nil {
			continue
		}
		for _, w := range r.WMEs("fa") {
			fas = append(fas, FunctionalArea{
				Seed:     int(w.Get("seed").IntVal()),
				Type:     w.Get("fatype").SymVal(),
				NMembers: int(w.Get("nmembers").IntVal()),
				Status:   w.Get("status").SymVal(),
			})
		}
		for _, w := range r.WMEs("prediction") {
			preds = append(preds, Prediction{
				FA:         int(w.Get("fa").IntVal()),
				Kind:       scene.Kind(w.Get("kind").SymVal()),
				Candidates: int(w.Get("candidates").IntVal()),
			})
		}
	}
	sort.Slice(fas, func(i, j int) bool { return fas[i].Seed < fas[j].Seed })
	sort.Slice(preds, func(i, j int) bool { return preds[i].FA < preds[j].FA })
	return fas, preds
}

// ---------------------------------------------------------------------------
// MODEL phase task

// Model is the final scene model.
type Model struct {
	Score int
	NFAs  int
}

// modelSpec is the single MODEL-phase task over the closed functional
// areas.
func modelSpec(store *RegionStore, prog *ops5.Program, frags []*Fragment, fas []FunctionalArea) taskSpec {
	frags = append([]*Fragment(nil), frags...)
	fas = append([]FunctionalArea(nil), fas...)
	return taskSpec{
		key:   fmt.Sprintf("model-%s", store.Scene().Name),
		label: fmt.Sprintf("MODEL (%d functional areas)", len(fas)),
		group: "model",
		est:   float64(len(fas) + 1),
		mem:   taskMemEst(2*len(fas) + 1),
		prog:  prog,
		phase: "model",
		seeds: func() ([]ops5.Seed, error) { return modelSeeds(prog, store, frags, fas) },
	}
}

// BuildModelTask returns the MODEL phase's single task (see modelSpec).
func BuildModelTask(kb *KB, store *RegionStore, prog *ops5.Program,
	frags []*Fragment, fas []FunctionalArea, capture bool) *tlp.Task {
	return specTasks([]taskSpec{modelSpec(store, prog, frags, fas)}, store, capture)[0]
}

// modelSeeds assembles the MODEL task's seed working memory: per
// closed functional area its (deduplicated) seed fragment and fa row,
// then the task control row, in assertion order.
func modelSeeds(prog *ops5.Program, store *RegionStore, frags []*Fragment, fas []FunctionalArea) ([]ops5.Seed, error) {
	byID := map[int]*Fragment{}
	for _, f := range frags {
		byID[f.ID] = f
	}
	ss := seedSet{prog: prog, store: store}
	seen := map[int]bool{}
	for _, fa := range fas {
		if fa.Status != "closed" {
			continue
		}
		if f := byID[fa.Seed]; f != nil && !seen[f.ID] {
			seen[f.ID] = true
			if err := ss.addFragment(f); err != nil {
				return nil, err
			}
		}
		if err := ss.add("fa", map[string]symtab.Value{
			"id":       symtab.Int(int64(fa.Seed)),
			"seed":     symtab.Int(int64(fa.Seed)),
			"fatype":   sym(fa.Type),
			"nmembers": symtab.Int(int64(fa.NMembers)),
			"status":   sym("closed"),
		}); err != nil {
			return nil, err
		}
	}
	if err := ss.add("model-task", map[string]symtab.Value{
		"status": sym("active"),
	}); err != nil {
		return nil, err
	}
	return ss.seeds, nil
}

// ExtractModel returns the final model from the MODEL task result.
func ExtractModel(results []*tlp.Result) (Model, bool) {
	for _, r := range results {
		if r == nil || r.Err != nil {
			continue
		}
		for _, w := range r.WMEs("model") {
			if w.Get("status").SymVal() == "final" {
				return Model{
					Score: int(w.Get("score").IntVal()),
					NFAs:  int(w.Get("nfas").IntVal()),
				}, true
			}
		}
	}
	return Model{}, false
}
