package spam

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"spampsm/internal/scene"
)

// compareOutputs asserts that two interpretations produced the same
// scene understanding — fragments, consistent pairs, LCC outcomes,
// functional areas, predictions and final model — without comparing
// cost accounting, which legitimately differs between an incremental
// update (retract charges, reused tasks' historical logs) and a
// from-scratch run.
func compareOutputs(t *testing.T, aName string, a *Interpretation, bName string, b *Interpretation) {
	t.Helper()
	if !reflect.DeepEqual(a.Fragments, b.Fragments) {
		t.Errorf("fragments differ: %s %d %s %d", aName, len(a.Fragments), bName, len(b.Fragments))
	}
	if !reflect.DeepEqual(a.Pairs, b.Pairs) {
		t.Errorf("consistent pairs differ: %s %d %s %d", aName, len(a.Pairs), bName, len(b.Pairs))
	}
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
		t.Errorf("LCC outcomes differ: %s %d %s %d", aName, len(a.Outcomes), bName, len(b.Outcomes))
	}
	if !reflect.DeepEqual(a.FAs, b.FAs) {
		t.Errorf("functional areas differ: %s %d %s %d", aName, len(a.FAs), bName, len(b.FAs))
	}
	if !reflect.DeepEqual(a.Predictions, b.Predictions) {
		t.Errorf("predictions differ: %s %d %s %d", aName, len(a.Predictions), bName, len(b.Predictions))
	}
	if a.ModelFound != b.ModelFound || !reflect.DeepEqual(a.Model, b.Model) {
		t.Errorf("final models differ: %s %+v %s %+v", aName, a.Model, bName, b.Model)
	}
	if a.TotalFirings() == 0 {
		t.Fatal("interpretation fired nothing: differential test is vacuous")
	}
}

// fromScratch interprets the given scene state on a fresh dataset —
// the reference an incremental update must match byte-for-byte.
func fromScratch(t *testing.T, base *Dataset, s *scene.Scene, opt InterpretOptions) *Interpretation {
	t.Helper()
	d := NewDatasetWith(s.Clone(), base.KB, base.Progs)
	in, err := d.Interpret(opt)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestSessionDifferentialIncremental is the incremental differential
// oracle: a session's initial interpretation must match the classic
// from-scratch path, and after each scene delta the incrementally
// updated interpretation — cached tasks reused, changed tasks re-run
// on reset warm engines — must be byte-identical to interpreting the
// updated scene from scratch.
func TestSessionDifferentialIncremental(t *testing.T) {
	d := smallDC(t)
	opt := InterpretOptions{Workers: 2}
	sess := NewSession(d, opt)
	in0, rep0, err := sess.Interpret(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep0.Fresh != rep0.Tasks || rep0.Reused != 0 || rep0.Rerun != 0 {
		t.Errorf("initial run should build everything fresh: %+v", rep0)
	}
	compareOutputs(t, "session", in0, "scratch", fromScratch(t, d, sess.Scene(), opt))

	for i, frac := range []float64{0.01, 0.05, 0.20} {
		delta := sess.Scene().Churn(scene.DefaultChurn(uint64(1000+i), frac))
		if delta.Empty() {
			t.Fatalf("churn %.2f produced an empty delta", frac)
		}
		in, rep, err := sess.Update(context.Background(), delta)
		if err != nil {
			t.Fatalf("update %.2f: %v", frac, err)
		}
		if rep.Reused == 0 {
			t.Errorf("churn %.2f: no task reuse at all: %+v", frac, rep)
		}
		if rep.Rerun == 0 {
			t.Errorf("churn %.2f: no warm engine was reset and re-run: %+v", frac, rep)
		}
		compareOutputs(t, "incremental", in, "scratch", fromScratch(t, d, sess.Scene(), opt))
	}
}

// TestSessionDifferentialReEntry covers the FA→LCC re-entry path and a
// non-default decomposition level under the same oracle.
func TestSessionDifferentialReEntry(t *testing.T) {
	d := smallDC(t)
	opt := InterpretOptions{Workers: 2, ReEntry: true, Level: Level2}
	sess := NewSession(d, opt)
	in0, _, err := sess.Interpret(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	compareOutputs(t, "session", in0, "scratch", fromScratch(t, d, sess.Scene(), opt))
	delta := sess.Scene().Churn(scene.DefaultChurn(7, 0.05))
	in, _, err := sess.Update(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	compareOutputs(t, "incremental", in, "scratch", fromScratch(t, d, sess.Scene(), opt))
}

// TestSessionEmptyUpdate proves the no-op bound: an empty delta reuses
// every cached task, runs nothing, and charges only the diff scan.
func TestSessionEmptyUpdate(t *testing.T) {
	d := smallDC(t)
	sess := NewSession(d, InterpretOptions{Workers: 2})
	in0, _, err := sess.Interpret(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	in, rep, err := sess.Update(context.Background(), &scene.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rerun != 0 || rep.Fresh != 0 || rep.Dropped != 0 {
		t.Errorf("empty update ran work: %+v", rep)
	}
	if rep.Reused != rep.Tasks {
		t.Errorf("empty update reused %d of %d tasks", rep.Reused, rep.Tasks)
	}
	if rep.UpdateInstr != rep.DiffInstr {
		t.Errorf("empty update charged %v beyond the diff scan %v", rep.UpdateInstr, rep.DiffInstr)
	}
	compareOutputs(t, "noop", in, "initial", in0)
}

// TestSessionUpdateCostProportional asserts the headline property on
// the full DC scene: a 1%-churn update reuses the bulk of the task
// set and charges under 15% of the from-scratch interpretation's
// simulated cost. Full DC, not the scaled-down test scene: Scale
// shrinks the extent while the KB's constraint radii stay absolute,
// so in the small scene one moved region is a partner candidate of
// most focal units and legitimately invalidates their tasks —
// proportionality is a locality property, and the full scene is where
// the locality exists.
func TestSessionUpdateCostProportional(t *testing.T) {
	d, err := NewDataset(scene.DC)
	if err != nil {
		t.Fatal(err)
	}
	opt := InterpretOptions{Workers: 4}
	sess := NewSession(d, opt)
	if _, _, err := sess.Interpret(context.Background()); err != nil {
		t.Fatal(err)
	}
	delta := sess.Scene().Churn(scene.DefaultChurn(42, 0.01))
	_, rep, err := sess.Update(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	full := fromScratch(t, d, sess.Scene(), opt)
	if ratio := rep.UpdateInstr / full.TotalInstr(); ratio >= 0.15 {
		t.Errorf("1%% churn update charged %.0f%% of from-scratch cost (update %.0f, full %.0f)",
			100*ratio, rep.UpdateInstr, full.TotalInstr())
	}
	if rep.Reused <= rep.Rerun+rep.Fresh {
		t.Errorf("1%% churn reran more than it reused: %+v", rep)
	}
	if rep.RetractedWMEs == 0 {
		t.Error("no warm engine retracted anything: reset path untested")
	}
}

// TestSessionDropsStaleTasks proves removal-side invalidation: heavy
// occlusion-only churn shrinks the scene, and the tasks whose focal
// work disappeared are dropped along with their engines.
func TestSessionDropsStaleTasks(t *testing.T) {
	d := smallDC(t)
	sess := NewSession(d, InterpretOptions{Workers: 2})
	if _, _, err := sess.Interpret(context.Background()); err != nil {
		t.Fatal(err)
	}
	delta := sess.Scene().Churn(scene.Churn{Seed: 3, Fraction: 0.3, Occlusion: 1.0})
	if len(delta.Removed) == 0 {
		t.Fatal("occlusion-only churn removed nothing")
	}
	in, rep, err := sess.Update(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped == 0 {
		t.Errorf("removals dropped no tasks: %+v", rep)
	}
	compareOutputs(t, "incremental", in, "scratch",
		fromScratch(t, d, sess.Scene(), InterpretOptions{Workers: 2}))
}

// TestSessionLiveGridConsistency drives the persistent grid through
// several updates and verifies its slots against the store each time.
func TestSessionLiveGridConsistency(t *testing.T) {
	d := smallDC(t)
	sess := NewSession(d, InterpretOptions{Workers: 2})
	if _, _, err := sess.Interpret(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		delta := sess.Scene().Churn(scene.DefaultChurn(uint64(50+i), 0.1))
		if _, _, err := sess.Update(context.Background(), delta); err != nil {
			t.Fatal(err)
		}
		if sess.grid == nil {
			t.Skip("pool below grid threshold; scan path in use")
		}
		if err := sess.grid.checkConsistent(); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	gs := sess.grid.Stats()
	if gs.Refreshes == 0 || gs.Retained == 0 {
		t.Errorf("grid did no incremental work: %+v", gs)
	}
	if gs.Retained <= gs.Reinserted+gs.Removed+gs.Added {
		t.Errorf("grid churned more than it retained: %+v", gs)
	}
}

// scaledAirport builds one of the three airport scenes at reduced
// scale.
func scaledAirport(t testing.TB, name string, scale float64) *Dataset {
	t.Helper()
	p := map[string]scene.Params{"SF": scene.SF, "DC": scene.DC, "MOFF": scene.MOFF}[name].Scale(scale)
	p.Name = name
	d, err := NewDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// taskIDs lists a phase's task IDs in result order.
func taskIDs(p PhaseRun) []string {
	ids := make([]string, len(p.Results))
	for i, r := range p.Results {
		ids[i] = r.TaskID
	}
	return ids
}

// TestDecompositionIdentity pins the single decomposition: a one-shot
// interpretation and a session's first run enumerate the same tasks
// under the same IDs in the same order, and charge the same per-phase
// tasks, firings and simulated instructions, for every scene, every
// LCC level, with and without FA→LCC re-entry.
func TestDecompositionIdentity(t *testing.T) {
	reEntryTasks := 0
	for _, name := range []string{"SF", "DC", "MOFF"} {
		d := scaledAirport(t, name, 0.3)
		for _, level := range []Level{Level1, Level2, Level3, Level4} {
			for _, reEntry := range []bool{false, true} {
				opt := InterpretOptions{Workers: 2, Level: level, ReEntry: reEntry}
				oneShot, err := d.Interpret(opt)
				if err != nil {
					t.Fatal(err)
				}
				first, _, err := NewSession(d, opt).Interpret(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if len(oneShot.Phases) != len(first.Phases) {
					t.Fatalf("%s L%d re-entry=%v: %d phases one-shot, %d in the session",
						name, level, reEntry, len(oneShot.Phases), len(first.Phases))
				}
				for i := range oneShot.Phases {
					a, b := oneShot.Phases[i], first.Phases[i]
					if ia, ib := taskIDs(a), taskIDs(b); !reflect.DeepEqual(ia, ib) {
						t.Errorf("%s L%d re-entry=%v %s: task IDs differ:\none-shot %v\nsession  %v",
							name, level, reEntry, a.Phase, ia, ib)
					}
					if a.Phase != b.Phase || a.Tasks != b.Tasks || a.Firings != b.Firings || a.Instr != b.Instr {
						t.Errorf("%s L%d re-entry=%v: phase %s tasks/firings/instr %d/%d/%.0f one-shot, %s %d/%d/%.0f in the session",
							name, level, reEntry, a.Phase, a.Tasks, a.Firings, a.Instr, b.Phase, b.Tasks, b.Firings, b.Instr)
					}
					for _, id := range taskIDs(a) {
						if strings.HasPrefix(id, "lccr") {
							reEntryTasks++
						}
					}
				}
			}
		}
	}
	if reEntryTasks == 0 {
		t.Error("no run produced an FA→LCC re-entry task: the re-entry half of the test is vacuous")
	}
}

// FuzzSessionUpdate folds random churn into a session — seed, churn
// fraction and number of updates drawn from the input — and requires
// the updated interpretation to match a from-scratch interpretation
// of the same scene after every update.
func FuzzSessionUpdate(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(1))
	f.Add(uint64(7), uint8(5), uint8(2))
	f.Add(uint64(42), uint8(20), uint8(1))
	f.Add(uint64(1000), uint8(49), uint8(3))
	var base *Dataset
	f.Fuzz(func(t *testing.T, seed uint64, pct, updates uint8) {
		if base == nil {
			base = scaledAirport(t, "DC", 0.3)
		}
		opt := InterpretOptions{Workers: 2, ReEntry: true}
		sess := NewSession(base, opt)
		if _, _, err := sess.Interpret(context.Background()); err != nil {
			t.Fatal(err)
		}
		frac := float64(pct%50+1) / 100
		for u := 0; u < int(updates%3)+1; u++ {
			delta := sess.Scene().Churn(scene.DefaultChurn(seed+uint64(u), frac))
			in, _, err := sess.Update(context.Background(), delta)
			if err != nil {
				t.Fatalf("update %d: %v", u, err)
			}
			if ref := fromScratch(t, base, sess.Scene(), opt); !SameOutputs(in, ref) {
				t.Fatalf("update %d (seed %d, %.0f%% churn): session outputs differ from a from-scratch run",
					u, seed+uint64(u), 100*frac)
			}
		}
	})
}
