package assign

import "taccc/internal/obs"

// ProgressReporter is implemented by iterative assigners that can stream
// per-iteration convergence events (Q-learning episodes, tabu/LNS moves)
// into an obs.ProgressSink.
//
// The sink is strictly observational: attaching one never touches the
// algorithm's random streams or decisions, so results are bit-identical
// with and without it. A nil sink (the default) disables emission with no
// overhead beyond a nil check per iteration.
type ProgressReporter interface {
	// SetProgress installs the sink for subsequent Assign calls; nil
	// detaches it.
	SetProgress(obs.ProgressSink)
}

// WithProgress attaches sink to a when the assigner reports progress,
// returning whether it does. Callers holding a bare Assigner (e.g. from
// the registry) use this instead of type-asserting themselves.
func WithProgress(a Assigner, sink obs.ProgressSink) bool {
	r, ok := a.(ProgressReporter)
	if ok {
		r.SetProgress(sink)
	}
	return ok
}
