package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"

	"spampsm/internal/spam"
)

// phasePrint is one phase's deterministic output fingerprint: task
// count, production firings and simulated instructions. They depend on
// the scene and the program only, never on timing or worker count.
type phasePrint struct {
	Phase   string  `json:"phase"`
	Tasks   int     `json:"tasks"`
	Firings int     `json:"firings"`
	Instr   float64 `json:"instr"`
}

// storedPrints holds fingerprints recorded for the default and the
// held-out seed, keyed "<workload>/<seed>", then by scene name.
// Regenerate an entry with --record-fingerprint.
//
//go:embed fingerprints.json
var storedPrints []byte

func fingerprint(in *spam.Interpretation) []phasePrint {
	var out []phasePrint
	for _, p := range in.Phases {
		out = append(out, phasePrint{p.Phase, p.Tasks, p.Firings, p.Instr})
	}
	return out
}

// checkPrint compares a run's fingerprint for one scene with the
// stored one, when the seed has an entry.
func (o *outcome) checkPrint(c *config, sceneName string, got []phasePrint) error {
	var all map[string]map[string][]phasePrint
	if err := json.Unmarshal(storedPrints, &all); err != nil {
		return fmt.Errorf("fingerprints.json: %w", err)
	}
	if o.print == nil {
		o.print = map[string][]phasePrint{}
	}
	o.print[sceneName] = got
	want, ok := all[fmt.Sprintf("%s/%d", c.workload, c.seed)][sceneName]
	if ok && !reflect.DeepEqual(want, got) {
		o.mismatch("%s seed %d scene %s: fingerprint %v, stored %v", c.workload, c.seed, sceneName, got, want)
	}
	return nil
}
