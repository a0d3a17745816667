// The cluster scale-out benchmark: real wall-clock interpretation
// across worker processes over the message-passing runtime
// (internal/cluster), emitted as BENCH_10.json by cmd/spambench -json.
// Each point runs a full interpretation with the task queue sharded
// over N processes and records what actually crossed the wire — task,
// chunk and result frames under the content-addressed wire v2, plus
// the counterfactual cost the same task frames would have had under
// wire v1 (every seed inline) — and how many LCC re-entry tasks
// continued worker-side without a coordinator round-trip. The
// simulated columns place the same task population on the Section 9
// projection machines (shared virtual memory, message-passing
// multicomputer) for comparison. A recovery run SIGKILLs workers
// mid-interpretation, with re-entry enabled so spawned continuations
// are among the casualties, and demonstrates exactly-once result
// delivery.
//
// Wall-clock figures are machine- and load-dependent, so Check gates
// only on structure and on the accounting invariants (everything
// shipped, the wire-locality budget, exactly-once under crashes),
// never on observed speedups.
package bench

import (
	"context"
	"fmt"
	"time"

	"spampsm/internal/cluster"
	"spampsm/internal/core"
	"spampsm/internal/faults"
	"spampsm/internal/machine"
	"spampsm/internal/msgpass"
	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/stats"
	"spampsm/internal/svm"
	"spampsm/internal/tlp"
)

// ClusterSchema versions the BENCH_10.json document. v2 added the
// wire-locality columns (chunk shipping, resident hits, the v1
// counterfactual) and the continuation accounting.
const ClusterSchema = "spampsm-cluster-bench/v2"

// clusterV1ShipShare pins what the v1 wire measured on the base
// datasets (BENCH_9.json shipShare, procs-independent: every seed
// shipped inline, deterministically). The Check gate demands the
// content-addressed wire hold at least a 3x reduction against these.
// The stress scene is deliberately absent — its seed population (and
// thus its share) moves with the stress factor, so it is recorded but
// not budgeted.
var clusterV1ShipShare = map[string]float64{"SF": 0.496, "DC": 0.513, "MOFF": 0.497}

// clusterProcs is the worker-process axis: every dataset interpreted
// at each of these process counts.
var clusterProcs = []int{1, 2, 4}

// clusterLocalWorkers is each worker process's local pool size.
const clusterLocalWorkers = 2

// ClusterPoint is one (dataset, worker processes) interpretation run.
type ClusterPoint struct {
	Dataset      string  `json:"dataset"`
	Procs        int     `json:"procs"`        // worker processes
	LocalWorkers int     `json:"localWorkers"` // task processes per worker
	WallMS       float64 `json:"wallMs"`
	Speedup      float64 `json:"speedup"` // vs this dataset's 1-process point

	Tasks        int     `json:"tasks"`        // tasks across all phases
	TasksShipped int     `json:"tasksShipped"` // task frames sent (incl. re-ships)
	ShippedBytes int64   `json:"shippedBytes"` // task + chunk + result frames on the wire
	ResultBytes  int64   `json:"resultBytes"`  // result-frame share of ShippedBytes
	ShipShare    float64 `json:"shipShare"`    // wire bytes per modeled seed WM byte
	Steals       int     `json:"steals"`

	// Wire-locality accounting (zero on v1 runs). V1TaskBytes is the
	// counterfactual: what the same task frames would have cost under
	// wire v1 with every seed inline — an understatement of the full
	// v1 wire (v1 result frames are also larger), so the reduction it
	// implies is conservative.
	WireVersion     int   `json:"wireVersion"`
	ChunksShipped   int   `json:"chunksShipped"`
	ChunkHits       int64 `json:"chunkHits"`       // seed refs resolved against resident chunks
	ChunkSavedBytes int64 `json:"chunkSavedBytes"` // encoded seed bytes the hits avoided re-shipping
	V1TaskBytes     int64 `json:"v1TaskBytes"`

	// Continuation accounting: how many re-entry tasks there were and
	// how many continued worker-side without a coordinator round-trip.
	ContinuationTasks int `json:"continuationTasks"`
	Continuations     int `json:"continuations"`

	// Simulated counterparts on the Section 9 projection machines,
	// same processor placement: speedup over one uniprocessor.
	SVMSpeedup     float64 `json:"svmSpeedup"`
	MsgpassSpeedup float64 `json:"msgpassSpeedup"`
}

// ClusterRecovery is the crash-recovery demonstration: deterministic
// process-level chaos SIGKILLs workers mid-run; the coordinator
// requeues, respawns, and still merges exactly one result per task.
type ClusterRecovery struct {
	Dataset      string  `json:"dataset"`
	Procs        int     `json:"procs"`
	CrashSeed    int64   `json:"crashSeed"`
	CrashRate    float64 `json:"crashRate"`
	Tasks        int     `json:"tasks"`
	Completed    int     `json:"completed"` // results merged by the coordinator
	WorkerDeaths int     `json:"workerDeaths"`
	Respawns     int     `json:"respawns"`
	Requeued     int     `json:"requeued"`
	// The run interprets with re-entry enabled so worker-side spawned
	// continuations are exposed to the crash chaos too; requeues of
	// spawned tasks are counted separately.
	ContinuationTasks int  `json:"continuationTasks"`
	Continuations     int  `json:"continuations"`
	SpawnedRequeued   int  `json:"spawnedRequeued"`
	ExactlyOnce       bool `json:"exactlyOnce"` // one non-nil result per task, no duplicates
}

// ClusterReport is the BENCH_10.json document.
type ClusterReport struct {
	Schema       string          `json:"schema"`
	LocalWorkers int             `json:"localWorkers"`
	Points       []ClusterPoint  `json:"points"`
	Recovery     ClusterRecovery `json:"recovery"`
}

// clusterParams returns the generator parameters for one dataset at
// the suite's subset scale — the same parameters the local Suite
// dataset was built from, so coordinator and workers agree bytewise.
func (s *Suite) clusterParams(name string) (scene.Params, error) {
	base := map[string]scene.Params{"SF": scene.SF, "DC": scene.DC, "MOFF": scene.MOFF}
	p, ok := base[name]
	if !ok {
		return scene.Params{}, fmt.Errorf("bench: unknown dataset %q", name)
	}
	if s.Opt.SubsetScale != 0 && s.Opt.SubsetScale != 1 {
		p = p.Scale(s.Opt.SubsetScale)
		p.Name = name
	}
	return p, nil
}

// clusterStressParams is the scale demonstration scene: SF at 10x the
// suite's subset scale, the memsched stress convention.
func (s *Suite) clusterStressParams() scene.Params {
	factor := 10.0
	if s.Opt.SubsetScale != 0 {
		factor *= s.Opt.SubsetScale
	}
	p := scene.SF.Scale(factor)
	p.Name = "SF-x10"
	return p
}

// clusterRun interprets one dataset over a fresh procs-process
// cluster and returns the wall time and the coordinator's wire
// accounting for the timed run (warmup excluded).
func clusterRun(d *spam.Dataset, params scene.Params, procs int) (*spam.Interpretation, float64, cluster.Stats, error) {
	co, err := cluster.Start(cluster.Config{Workers: procs, LocalWorkers: clusterLocalWorkers})
	if err != nil {
		return nil, 0, cluster.Stats{}, err
	}
	defer co.Close()
	if err := co.RegisterDataset(cluster.AirportSpec(params)); err != nil {
		return nil, 0, cluster.Stats{}, err
	}

	opt := spam.InterpretOptions{Workers: clusterLocalWorkers, ReEntry: true}
	opt.Runner = cluster.NewRunner(co, opt)

	// Warmup: push the RTF queue through once so every worker has
	// regenerated the dataset (workers build it inline in their frame
	// loop) before the clock starts.
	warm := spam.BuildRTFTasks(d.KB, d.Store, d.Progs.RTF, 3, false)
	if _, err := co.RunTasks(context.Background(), tlp.FIFO, cluster.RunConfig{}, warm); err != nil {
		return nil, 0, cluster.Stats{}, err
	}
	before := co.Stats()

	start := time.Now()
	in, err := d.Interpret(opt)
	wallMS := float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		return nil, 0, cluster.Stats{}, err
	}
	after := co.Stats()
	return in, wallMS, cluster.Stats{
		Workers:           after.Workers,
		WireVersion:       after.WireVersion,
		TasksShipped:      after.TasksShipped - before.TasksShipped,
		ShippedBytes:      after.ShippedBytes - before.ShippedBytes,
		ResultBytes:       after.ResultBytes - before.ResultBytes,
		V1TaskBytes:       after.V1TaskBytes - before.V1TaskBytes,
		ChunksShipped:     after.ChunksShipped - before.ChunksShipped,
		ChunkHits:         after.ChunkHits - before.ChunkHits,
		ChunkSavedBytes:   after.ChunkSavedBytes - before.ChunkSavedBytes,
		ContinuationTasks: after.ContinuationTasks - before.ContinuationTasks,
		Continuations:     after.Continuations - before.Continuations,
		Steals:            after.Steals - before.Steals,
		Requeued:          after.Requeued - before.Requeued,
	}, nil
}

// clusterRecovery runs DC under deterministic process chaos: workers
// SIGKILL themselves on fated (task, attempt) draws, the coordinator
// requeues the dead process's in-flight tasks and respawns within the
// budget, and the merged result set is still exactly-once.
func (s *Suite) clusterRecovery() (ClusterRecovery, error) {
	const (
		procs     = 2
		crashSeed = 7
		crashRate = 0.05
	)
	d, err := s.Dataset("DC")
	if err != nil {
		return ClusterRecovery{}, err
	}
	params, err := s.clusterParams("DC")
	if err != nil {
		return ClusterRecovery{}, err
	}
	co, err := cluster.Start(cluster.Config{
		Workers:      procs,
		LocalWorkers: 1,
		ShipWindow:   1, // minimal pipelining: fewer in-flight casualties per death
		MaxRespawns:  8,
		ProcFaults:   faults.Config{Seed: crashSeed, CrashRate: crashRate},
	})
	if err != nil {
		return ClusterRecovery{}, err
	}
	defer co.Close()
	if err := co.RegisterDataset(cluster.AirportSpec(params)); err != nil {
		return ClusterRecovery{}, err
	}

	// Re-entry on: worker-side spawned continuations are in flight
	// when workers die, so the requeue path for spawned tasks is
	// exercised, not just the coordinator-shipped one.
	opt := spam.InterpretOptions{Workers: procs, MaxRetries: 2, ReEntry: true}
	opt.Runner = cluster.NewRunner(co, opt)
	in, err := d.Interpret(opt)
	if err != nil {
		return ClusterRecovery{}, err
	}

	// The exactly-once witness: a crash-free in-process run of the
	// same dataset defines the expected result population: per-phase
	// multiset equality with the reference. Task IDs are unique within
	// a phase (re-entry tasks key under "lccr"), so every count is 0
	// or 1; a lost merge removes a result from the multiset, a
	// duplicated merge adds one, and either breaks the equality.
	ref, err := d.Interpret(spam.InterpretOptions{Workers: procs, ReEntry: true})
	if err != nil {
		return ClusterRecovery{}, err
	}
	exactly := len(in.Phases) == len(ref.Phases) &&
		in.Completeness.Tasks == ref.Completeness.Tasks
	for pi := 0; exactly && pi < len(in.Phases); pi++ {
		got, want := map[string]int{}, map[string]int{}
		for _, r := range in.Phases[pi].Results {
			if r == nil {
				exactly = false
			} else {
				got[r.TaskID]++
			}
		}
		for _, r := range ref.Phases[pi].Results {
			want[r.TaskID]++
		}
		if len(got) != len(want) {
			exactly = false
		}
		for id, n := range want {
			if got[id] != n {
				exactly = false
			}
		}
	}
	st := co.Stats()
	return ClusterRecovery{
		Dataset:           "DC",
		Procs:             procs,
		CrashSeed:         crashSeed,
		CrashRate:         crashRate,
		Tasks:             in.Completeness.Tasks,
		Completed:         st.TasksCompleted,
		WorkerDeaths:      st.WorkerDeaths,
		Respawns:          st.Respawns,
		Requeued:          st.Requeued,
		ContinuationTasks: st.ContinuationTasks,
		Continuations:     st.Continuations,
		SpawnedRequeued:   st.SpawnedRequeued,
		ExactlyOnce:       exactly,
	}, nil
}

// Cluster runs the full experiment: the three datasets plus the
// 10x-scale stress scene at each worker-process count, then the
// crash-recovery run. Expensive (every point is a real multi-process
// interpretation), so the report is built once per suite.
func (s *Suite) Cluster() (*ClusterReport, error) {
	if s.clus != nil {
		return s.clus, nil
	}
	rep := &ClusterReport{Schema: ClusterSchema, LocalWorkers: clusterLocalWorkers}

	type target struct {
		name   string
		d      *spam.Dataset
		params scene.Params
		m      *core.Measurement
	}
	var targets []target
	for _, ds := range Datasets {
		d, err := s.Dataset(ds)
		if err != nil {
			return nil, err
		}
		params, err := s.clusterParams(ds)
		if err != nil {
			return nil, err
		}
		m, err := s.Measurement(ds, core.LCC, spam.Level3, false)
		if err != nil {
			return nil, err
		}
		targets = append(targets, target{ds, d, params, m})
	}
	stressParams := s.clusterStressParams()
	stressD, err := spam.NewDataset(stressParams)
	if err != nil {
		return nil, err
	}
	stressM, err := core.NewSystem(stressD, core.LCC, spam.Level3).Measure(false)
	if err != nil {
		return nil, err
	}
	targets = append(targets, target{stressParams.Name, stressD, stressParams, stressM})

	for _, tg := range targets {
		durs := machine.Durations(tg.m.Exp.Tasks, 0, tg.m.Exp.Model)
		ov := tg.m.Exp.Overheads
		var base float64
		for _, procs := range clusterProcs {
			in, wallMS, st, err := clusterRun(tg.d, tg.params, procs)
			if err != nil {
				return nil, fmt.Errorf("bench: cluster %s procs=%d: %w", tg.name, procs, err)
			}
			if procs == clusterProcs[0] {
				base = wallMS
			}
			var seedBytes float64
			tasks := 0
			for _, ph := range in.Phases {
				seedBytes += ph.SeedBytes
				tasks += ph.Tasks
			}
			pt := ClusterPoint{
				Dataset:           tg.name,
				Procs:             procs,
				LocalWorkers:      clusterLocalWorkers,
				WallMS:            wallMS,
				Tasks:             tasks,
				TasksShipped:      st.TasksShipped,
				ShippedBytes:      st.ShippedBytes,
				ResultBytes:       st.ResultBytes,
				WireVersion:       st.WireVersion,
				ChunksShipped:     st.ChunksShipped,
				ChunkHits:         st.ChunkHits,
				ChunkSavedBytes:   st.ChunkSavedBytes,
				V1TaskBytes:       st.V1TaskBytes,
				ContinuationTasks: st.ContinuationTasks,
				Continuations:     st.Continuations,
				Steals:            st.Steals,
				SVMSpeedup: svm.Speedup(durs, svm.Cluster{
					Node0Procs:  clusterLocalWorkers,
					RemoteProcs: (procs - 1) * clusterLocalWorkers,
				}, svm.DefaultConfig(), ov),
				MsgpassSpeedup: msgpass.Speedup(durs, msgpass.DefaultConfig(procs*clusterLocalWorkers), msgpass.Dynamic),
			}
			if wallMS > 0 && base > 0 {
				pt.Speedup = base / wallMS
			}
			if seedBytes > 0 {
				pt.ShipShare = float64(st.ShippedBytes) / seedBytes
			}
			rep.Points = append(rep.Points, pt)
		}
	}

	rec, err := s.clusterRecovery()
	if err != nil {
		return nil, fmt.Errorf("bench: cluster recovery: %w", err)
	}
	rep.Recovery = rec
	s.clus = rep
	return rep, nil
}

// Check validates the report's structure and accounting invariants:
// full (dataset x procs) coverage, every point a real run with its
// whole task population shipped over the wire, and the recovery run
// demonstrating exactly-once delivery through at least one worker
// death. Observed wall-clock speedups are recorded, not gated — they
// depend on the host.
func (r *ClusterReport) Check() error {
	if r.Schema != ClusterSchema {
		return fmt.Errorf("cluster: schema %q, want %q", r.Schema, ClusterSchema)
	}
	want := map[string]map[int]bool{}
	for _, ds := range append(append([]string{}, Datasets...), "SF-x10") {
		want[ds] = map[int]bool{}
		for _, p := range clusterProcs {
			want[ds][p] = true
		}
	}
	for _, pt := range r.Points {
		if want[pt.Dataset] == nil || !want[pt.Dataset][pt.Procs] {
			return fmt.Errorf("cluster: unexpected point %s/procs=%d", pt.Dataset, pt.Procs)
		}
		delete(want[pt.Dataset], pt.Procs)
		if pt.WallMS <= 0 || pt.Tasks <= 0 {
			return fmt.Errorf("cluster: point %s/procs=%d is not a real run (wall=%g tasks=%d)",
				pt.Dataset, pt.Procs, pt.WallMS, pt.Tasks)
		}
		// Every task crosses the wire as its own frame — except a
		// continuation the worker ran locally before the coordinator's
		// push went out, which never needs one. That slack is bounded
		// by the worker-side continuation count.
		if pt.TasksShipped+pt.Continuations < pt.Tasks || pt.ShippedBytes <= 0 {
			return fmt.Errorf("cluster: point %s/procs=%d shipped %d tasks / %d bytes (%d worker-side continuations), want >= %d tasks",
				pt.Dataset, pt.Procs, pt.TasksShipped, pt.ShippedBytes, pt.Continuations, pt.Tasks)
		}
		if pt.Procs == clusterProcs[0] && pt.Speedup != 1 {
			return fmt.Errorf("cluster: point %s base speedup %g, want 1", pt.Dataset, pt.Speedup)
		}
		if pt.WireVersion >= 2 {
			if pt.ChunksShipped <= 0 || pt.ChunkHits <= 0 {
				return fmt.Errorf("cluster: point %s/procs=%d shipped %d chunks with %d hits — content-addressed shipping is not engaging",
					pt.Dataset, pt.Procs, pt.ChunksShipped, pt.ChunkHits)
			}
			if taskBytes := pt.ShippedBytes - pt.ResultBytes; pt.V1TaskBytes <= taskBytes {
				return fmt.Errorf("cluster: point %s/procs=%d v1 counterfactual %d bytes <= actual non-result wire %d — chunking saved nothing",
					pt.Dataset, pt.Procs, pt.V1TaskBytes, taskBytes)
			}
			if pt.ContinuationTasks > 0 && 10*pt.Continuations < 9*pt.ContinuationTasks {
				return fmt.Errorf("cluster: point %s/procs=%d continued %d/%d re-entry tasks worker-side, want >= 90%%",
					pt.Dataset, pt.Procs, pt.Continuations, pt.ContinuationTasks)
			}
			// The shipped-bytes budget on the three base datasets:
			// wire bytes per modeled seed byte must hold the 3x
			// reduction over what the v1 wire measured there.
			if v1, ok := clusterV1ShipShare[pt.Dataset]; ok && 3*pt.ShipShare > v1 {
				return fmt.Errorf("cluster: point %s/procs=%d ship share %.3f exceeds the wire-locality budget (v1 measured %.3f, want at least 3x under it)",
					pt.Dataset, pt.Procs, pt.ShipShare, v1)
			}
		}
	}
	for ds, procs := range want {
		if len(procs) > 0 {
			return fmt.Errorf("cluster: dataset %s missing %d points", ds, len(procs))
		}
	}
	rec := r.Recovery
	if rec.WorkerDeaths < 1 {
		return fmt.Errorf("cluster: recovery saw no worker deaths")
	}
	if rec.ContinuationTasks < 1 {
		return fmt.Errorf("cluster: recovery ran no re-entry tasks — spawned continuations were not exposed to the crash chaos")
	}
	if !rec.ExactlyOnce || rec.Tasks <= 0 {
		return fmt.Errorf("cluster: recovery not exactly-once (%d tasks)", rec.Tasks)
	}
	if rec.Requeued < 1 || rec.Completed < rec.Tasks {
		return fmt.Errorf("cluster: recovery requeued=%d completed=%d tasks=%d",
			rec.Requeued, rec.Completed, rec.Tasks)
	}
	return nil
}

// ExtCluster renders the experiment as text: one table over the
// (dataset, procs) grid, then the recovery summary. The full document
// ships in BENCH_10.json (spambench -json).
func (s *Suite) ExtCluster() (string, error) {
	rep, err := s.Cluster()
	if err != nil {
		return "", err
	}
	if err := rep.Check(); err != nil {
		return "", err
	}
	tb := stats.Table{
		Title: fmt.Sprintf("Extension: multi-process cluster interpretation (%d local workers per process, wire v%d)",
			rep.LocalWorkers, cluster.Version),
		Headers: []string{"Dataset", "Procs", "Wall (ms)", "Speedup", "Tasks", "Shipped",
			"Wire bytes", "Chunks", "Hits", "Cont", "Steals", "SVM (sim)", "Msgpass (sim)"},
	}
	for _, pt := range rep.Points {
		tb.AddRow(pt.Dataset, pt.Procs, pt.WallMS, pt.Speedup, pt.Tasks, pt.TasksShipped,
			stats.FormatBytes(float64(pt.ShippedBytes)), pt.ChunksShipped, pt.ChunkHits,
			fmt.Sprintf("%d/%d", pt.Continuations, pt.ContinuationTasks),
			pt.Steals, pt.SVMSpeedup, pt.MsgpassSpeedup)
	}
	rec := rep.Recovery
	out := tb.String() + "\n"
	out += fmt.Sprintf("Recovery: %s over %d procs, crash seed %d rate %g — %d worker deaths, "+
		"%d respawns, %d tasks requeued (%d of them spawned continuations); "+
		"%d tasks merged exactly-once\n",
		rec.Dataset, rec.Procs, rec.CrashSeed, rec.CrashRate, rec.WorkerDeaths,
		rec.Respawns, rec.Requeued, rec.SpawnedRequeued, rec.Tasks)
	return out, nil
}
