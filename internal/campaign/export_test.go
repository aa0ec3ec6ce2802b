package campaign

import "repro/internal/store"

// Prepare is prepare's verdict on a spec as Validate sees it: its
// error, or nil once the model factory is built.
func Prepare(spec store.JobSpec) error {
	_, err := prepare(spec.Canonical())
	return err
}
