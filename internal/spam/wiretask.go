package spam

import (
	"fmt"

	"spampsm/internal/ops5"
	"spampsm/internal/tlp"
)

// WireBuild resolves a shipped task description against this dataset:
// it returns the engine builder a cluster worker runs in place of the
// original Task.Build closure. The builder instantiates the phase's
// program from the worker's own (identically generated) dataset,
// registers the engine with the worker's RegionStore, and asserts the
// shipped seed batch — the same three steps every local task builder
// performs, so the resulting engine, and everything it computes, is
// byte-identical to the coordinator-side original.
func (d *Dataset) WireBuild(spec *tlp.WireSpec, capture bool) (func(s *ops5.Scratch) (*ops5.Engine, error), error) {
	var prog *ops5.Program
	switch spec.Phase {
	case "rtf":
		prog = d.Progs.RTF
	case "lcc":
		prog = d.Progs.LCC
	case "fa":
		prog = d.Progs.FA
	case "model":
		prog = d.Progs.Model
	default:
		return nil, fmt.Errorf("spam: wire task phase %q unknown (want rtf, lcc, fa or model)", spec.Phase)
	}
	seeds := spec.Seeds
	return func(s *ops5.Scratch) (*ops5.Engine, error) {
		e, err := newTaskEngine(d.Store, prog, capture, s)
		if err != nil {
			return nil, err
		}
		if err := e.AssertBatch(seeds); err != nil {
			return nil, err
		}
		return e, nil
	}, nil
}
