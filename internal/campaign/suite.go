//repro:deterministic
package campaign

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// RunSuite executes the named experiments from the core registry on the
// campaign worker pool and returns their tables in registry order (the
// order ids were given). Empty ids means the whole E1–E22 suite.
//
// Experiments are independent closed-form drivers — each builds its own
// engines and seeds its own traces — so running them concurrently
// changes wall-clock, never a table cell. The first failure is
// reported; completed tables are still returned so a partial suite run
// remains inspectable.
func RunSuite(ids []string, refs, jobs int) ([]*core.Table, error) {
	var exps []core.Experiment
	if len(ids) == 0 {
		exps = core.Experiments()
	} else {
		for _, id := range ids {
			exp, ok := core.ExperimentByID(id)
			if !ok {
				return nil, fmt.Errorf("campaign: unknown experiment %q (want %s)", id, core.ExperimentIDRange())
			}
			exps = append(exps, exp)
		}
	}

	tables := make([]*core.Table, len(exps))
	errs := make([]error, len(exps))
	p := NewPool(jobs)
	defer p.Close()
	p.each(context.Background(), len(exps), func(i int) {
		tbl, err := exps[i].Run(refs)
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", exps[i].ID, err)
			return
		}
		tables[i] = tbl
	})

	out := make([]*core.Table, 0, len(exps))
	var firstErr error
	for i := range exps {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		out = append(out, tables[i])
	}
	return out, firstErr
}
