// Interpretation sessions: incremental re-interpretation with cost
// proportional to scene churn.
//
// A Session holds a live interpretation of one scene — a private scene
// clone, its RegionStore, a persistent fragment grid, and every phase
// task's quiesced Rete engine — and folds scene deltas into it. It runs
// the same phase sequence and the same decomposition as a one-shot
// interpretation (Dataset.interpret and the spec builders in tasks.go):
// tasks are keyed by what they cover — RTF position batches, LCC units
// by focal fragment (and constraint, and partner), FA tasks by seed
// fragment — so the same logical task keeps its key across updates.
// The session only adds a per-run hook (sessionRun). For each task it
// assembles the seed working memory, collapses each seed to its
// rete.RouteDigest, appends the geometry epochs of the regions the
// task's externals can read (geo-test booleans and fa-predict-area
// candidate scans depend on region geometry the seed rows don't
// capture), and diffs the signature against the one the task last ran
// with:
//
//   - unchanged signature → the task's cached result (and its warm
//     engine, holding the final working memory) is reused outright, at
//     zero simulated cost beyond the digest comparison;
//   - changed signature with a retained engine → the engine is returned
//     to the empty-WM state (ops5.ResetForUpdate retracts the live WM
//     through the Rete network), reloaded with the new seeds, and
//     re-run — the warm engine keeps its compiled network, token pools
//     and hash indexes, and the retract+reload charge is the update's
//     honestly accounted cost;
//   - new key → a fresh engine, as in a from-scratch run;
//   - disappeared key → the task and its engine are dropped.
//
// Because tasks share nothing and extraction orders every output, the
// updated Interpretation is byte-identical to interpreting the updated
// scene from scratch — the property the incremental differential
// oracle (session_test.go, `make oracle`) enforces. Only the charged
// cost differs: proportional to churn instead of scene size.
//
// Sessions are single-threaded by contract: one Update at a time, no
// concurrent Interpret. The serving layer wraps each session in its
// own mutex (per-session serialization, cross-session parallelism).
package spam

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"spampsm/internal/ops5"
	"spampsm/internal/rete"
	"spampsm/internal/scene"
	"spampsm/internal/tlp"
)

// diffInstrPerSeed is the modeled charge of one seed-digest comparison
// during update diffing — a table probe, costed like one alpha-memory
// scan step so the diff itself stays visible in the update's simulated
// cost (UpdateReport.DiffInstr) rather than pretending to be free.
const diffInstrPerSeed = rete.CostAlphaScan

// Session is a live, updatable interpretation of one scene.
type Session struct {
	ds     *Dataset // private: cloned scene, own RegionStore; shared KB/Progs
	opt    InterpretOptions
	runner Runner    // opt.Runner, or a private pool that persists across updates
	grid   *liveGrid // session-persistent LCC partner index

	tasks   map[string]*sessTask
	last    *Interpretation
	updates int
}

// sessTask is one stable task's retained state between runs.
type sessTask struct {
	sig  string      // seed-digest signature of the last run
	res  *tlp.Result // cached result; Engine retained warm for reuse/reset
	live bool        // touched by the current run (sweep mark)
}

// UpdateReport accounts one session run's incremental work. The
// initial interpretation is update 0 (everything Fresh); subsequent
// updates show the reuse the stable decomposition achieved and the
// charged cost of exactly the work that re-ran.
type UpdateReport struct {
	Update    int `json:"update"`
	DeltaSize int `json:"deltaSize"` // region changes folded in by this update

	Tasks   int `json:"tasks"`   // tasks enumerated this run
	Reused  int `json:"reused"`  // unchanged signature: cached result returned
	Rerun   int `json:"rerun"`   // warm engine reset, reloaded and re-run
	Fresh   int `json:"fresh"`   // newly built engines
	Dropped int `json:"dropped"` // stale tasks (and engines) discarded

	// SeedsDiffed counts the seed digests compared; DiffInstr is their
	// modeled charge (diffInstrPerSeed each), included in UpdateInstr.
	SeedsDiffed int     `json:"seedsDiffed"`
	DiffInstr   float64 `json:"diffInstr"`

	// RetractedWMEs is the seed volume unloaded from warm engines
	// (ops5.MemStats.RetractedWMEs summed over the reset tasks).
	RetractedWMEs int `json:"retractedWMEs"`

	// UpdateInstr is the charged simulated cost of this run: the diff
	// charge plus the full cost (retract + reload + match + act) of the
	// tasks that actually ran. Reused tasks contribute nothing.
	UpdateInstr float64 `json:"updateInstr"`

	Wall time.Duration `json:"wallNs"`

	// Grid and Geo surface the session's incremental index counters:
	// the live grid's patch work and the store's predicate-memo
	// hit/eviction accounting.
	Grid LiveGridStats `json:"grid"`
	Geo  GeoMemoStats  `json:"geo"`
}

// NewSession opens a session over the dataset: the scene is cloned
// (the dataset — often shared and pinned — is never mutated), the
// store is private, and the knowledge base and compiled programs are
// shared. Call Interpret once for the initial interpretation, then
// Update per scene delta. The options are fixed for the session's
// lifetime so the decomposition stays stable.
func NewSession(ds *Dataset, opt InterpretOptions) *Session {
	opt = opt.withDefaults()
	// Prebuild overlaps first-run engine construction but is pointless
	// (and would fight warm-engine reuse) on updates; sessions skip it.
	opt.Prebuild = false
	s := &Session{
		ds:     NewDatasetWith(ds.Scene.Clone(), ds.KB, ds.Progs),
		opt:    opt,
		runner: opt.Runner,
		tasks:  map[string]*sessTask{},
	}
	if s.runner == nil {
		// One pool for the session's lifetime: its workers, memory gate
		// and throttle accounting span every update.
		s.runner = newPoolRunner(opt)
	}
	return s
}

// Scene returns the session's private scene (mutated by Update).
func (s *Session) Scene() *scene.Scene { return s.ds.Scene }

// Store returns the session's private region store.
func (s *Session) Store() *RegionStore { return s.ds.Store }

// Updates returns the number of deltas folded in so far.
func (s *Session) Updates() int { return s.updates }

// Last returns the most recent interpretation, or nil before the
// first Interpret.
func (s *Session) Last() *Interpretation { return s.last }

// GridStats returns the persistent fragment grid's update counters
// (zero while the session runs the scan path).
func (s *Session) GridStats() LiveGridStats { return s.grid.Stats() }

// Interpret runs the initial interpretation (or re-runs the current
// scene state; an unchanged scene reuses every cached task).
func (s *Session) Interpret(ctx context.Context) (*Interpretation, *UpdateReport, error) {
	return s.run(ctx, 0)
}

// Update folds a scene delta into the session and re-interprets: the
// store applies the delta (derived geometry, predicate-memo epochs and
// the fragment-seed cache invalidate for exactly the changed regions),
// and only the tasks whose seed signatures changed re-run, on their
// retained warm engines. The returned interpretation is byte-identical
// to a from-scratch interpretation of the updated scene.
func (s *Session) Update(ctx context.Context, d *scene.Delta) (*Interpretation, *UpdateReport, error) {
	if err := s.ds.Store.ApplyDelta(d); err != nil {
		return nil, nil, err
	}
	s.updates++
	return s.run(ctx, d.Size())
}

// run interprets the session's current scene state through the shared
// phase sequence, then sweeps the tasks the run no longer enumerated.
func (s *Session) run(ctx context.Context, deltaSize int) (*Interpretation, *UpdateReport, error) {
	start := time.Now()
	rep := &UpdateReport{Update: s.updates, DeltaSize: deltaSize}
	for _, st := range s.tasks {
		st.live = false
	}
	in, err := s.ds.interpret(ctx, s.opt, s.runner, &sessionRun{s: s, rep: rep})
	for k, st := range s.tasks {
		if !st.live {
			delete(s.tasks, k)
			rep.Dropped++
		}
	}
	rep.UpdateInstr += rep.DiffInstr
	rep.Wall = time.Since(start)
	rep.Grid = s.grid.Stats()
	rep.Geo = s.ds.Store.GeoStats()
	if err == nil {
		s.last = in
	}
	return in, rep, err
}

// sessionRun is what one session run adds to the shared phase
// sequence: the session's persistent partner grid and its
// signature-diffing task execution, accounted into the run's report.
type sessionRun struct {
	s   *Session
	rep *UpdateReport
}

// partners refreshes the persistent grid to the new fragment pool and
// queries it — the same candidate sets, in the same ascending-ID
// order, as a one-shot run's transient index, or NearbyFragments' scan
// while the pool is too small for a grid.
func (r *sessionRun) partners(frags []*Fragment) partnerQuery {
	s := r.s
	if s.grid == nil {
		s.grid = newLiveGrid(s.ds.Store, frags)
	} else {
		s.grid.refresh(frags)
	}
	return func(f *Fragment, c Constraint) []*Fragment {
		if s.grid != nil {
			return s.grid.query(f, c.Object, c.Radius)
		}
		return NearbyFragments(s.ds.Store, f, c.Object, frags, c.Radius)
	}
}

// run diffs each spec's signature against the cached task state,
// reuses unchanged tasks, and runs the changed/new remainder as one
// queue through the session's runner (retaining the pool's retry,
// quarantine and memory-gate semantics). Results come back in spec
// order — a scheduling policy may permute the runner's — with engines
// attached for extraction and warm reuse.
func (r *sessionRun) run(ctx context.Context, runner Runner, specs []taskSpec) ([]*tlp.Result, error) {
	s, rep := r.s, r.rep
	results := make([]*tlp.Result, len(specs))
	var tasks []*tlp.Task
	var pending []int // spec index per submitted task
	for i, sp := range specs {
		seeds, err := sp.seeds()
		if err != nil {
			return nil, err
		}
		var regions []int
		if sp.regions != nil {
			regions = sp.regions()
		}
		geo, geoN := s.geoSig(regions)
		rep.Tasks++
		rep.SeedsDiffed += len(seeds) + geoN
		rep.DiffInstr += float64(len(seeds)+geoN) * diffInstrPerSeed
		st := s.tasks[sp.key]
		if st != nil && st.live {
			return nil, fmt.Errorf("spam: session: duplicate task key %s", sp.key)
		}
		// seedSig is a prefix code, so appending the epoch component
		// keeps the combined signature collision-free.
		sig := seedSig(seeds) + geo
		if st != nil && st.sig == sig && st.res != nil && st.res.Err == nil {
			st.live = true
			results[i] = st.res
			rep.Reused++
			continue
		}
		// Changed or new: take the warm engine (if any) for a
		// reset+reload; the cached result is dead either way.
		var warm *ops5.Engine
		if st != nil {
			if st.res != nil {
				warm = st.res.Engine
				st.res = nil
			}
		} else {
			st = &sessTask{}
			s.tasks[sp.key] = st
		}
		if warm != nil {
			rep.Rerun++
		} else {
			rep.Fresh++
		}
		st.sig = sig
		st.live = true
		t := sp.task(s.ds.Store, s.opt.Capture, func() ([]ops5.Seed, error) { return seeds, nil }, warm)
		if s.updates > 0 {
			// An updated scene is no longer one a cluster worker can
			// regenerate from the dataset's parameters: keep its tasks
			// local rather than ship them against the original scene.
			t.Wire = nil
		}
		tasks = append(tasks, t)
		pending = append(pending, i)
	}
	if len(tasks) == 0 {
		return results, nil
	}
	rs, err := runner.RunTasks(ctx, tasks)
	if err != nil {
		return nil, err
	}
	// Results return in queue order, which a scheduling policy may
	// permute; rejoin them to their specs by task ID.
	byID := make(map[string]*tlp.Result, len(rs))
	for _, res := range rs {
		if res != nil {
			byID[res.TaskID] = res
		}
	}
	for _, i := range pending {
		res := byID[specs[i].key]
		results[i] = res
		s.tasks[specs[i].key].res = res
		if res != nil && res.Err == nil {
			rep.UpdateInstr += res.Stats.TotalInstr()
			if res.Log != nil {
				rep.RetractedWMEs += res.Log.Mem.RetractedWMEs
			}
		}
	}
	return results, nil
}

// seedSig collapses a seed set to its order-sensitive digest
// signature. Each seed's RouteDigest is length-prefixed, so no two
// distinct seed sequences share a signature by concatenation.
func seedSig(seeds []ops5.Seed) string {
	b := make([]byte, 0, 64*len(seeds))
	for _, sd := range seeds {
		d := sd.Digest
		if d == "" {
			d = rete.RouteDigest(sd.Class, sd.Vals)
		}
		b = binary.AppendUvarint(b, uint64(len(d)))
		b = append(b, d...)
	}
	return string(b)
}

// geoSig encodes the geometry epochs of the regions a task's externals
// can read, as sorted deduplicated (id, epoch) pairs. The seed rows
// alone under-determine a task's output whenever an external reads the
// store: geo-test booleans (LCC) and fa-predict-area candidate counts
// (FA) change with region geometry while the fragment tuples and
// quantized measurements stay identical. Folding the epochs into the
// signature makes every such task re-run exactly when a delta touched
// geometry it can observe.
func (s *Session) geoSig(ids []int) (string, int) {
	if len(ids) == 0 {
		return "", 0
	}
	sort.Ints(ids)
	b := make([]byte, 0, 4*len(ids))
	last, n := -1, 0
	for _, id := range ids {
		if id == last {
			continue
		}
		last = id
		b = binary.AppendUvarint(b, uint64(id))
		b = binary.AppendUvarint(b, uint64(s.ds.Store.EpochOf(id)))
		n++
	}
	return string(b), n
}

// lccUnitRegions collects the regions an LCC task's geo-test calls can
// read: the focal fragment's region and every partner's region.
func lccUnitRegions(units []lccUnit) []int {
	var ids []int
	for _, u := range units {
		ids = append(ids, u.focal.RegionID)
		for _, ps := range u.partners {
			for _, p := range ps {
				ids = append(ids, p.RegionID)
			}
		}
	}
	return ids
}

// faNeighborhood collects the regions an FA task's fa-predict-area
// scan can read: the seed region plus every region whose bbox
// intersects the seed bbox expanded by faPredictRadius — the
// external's exact candidate-set determination, so the signature
// changes iff a prediction's candidate count could.
func faNeighborhood(st *RegionStore, seedRegion int) []int {
	ids := []int{seedRegion}
	d := st.Derived(seedRegion)
	if d == nil {
		return ids
	}
	bb := d.BBox.Expand(faPredictRadius)
	for _, other := range st.Scene().Regions {
		if other.ID == seedRegion {
			continue
		}
		if od := st.Derived(other.ID); od != nil && bb.Intersects(od.BBox) {
			ids = append(ids, other.ID)
		}
	}
	return ids
}
