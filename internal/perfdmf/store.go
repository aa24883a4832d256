package perfdmf

import "context"

// Store is the repository surface that PerfExplorer sessions, command-line
// tools and services program against: saving, loading, deleting and
// browsing trials in the Application → Experiment → Trial hierarchy.
//
// Three implementations exist: *Repository (in-process, optionally
// file-backed), dmfclient.Client (the same API spoken over HTTP to a
// perfdmfd server) and cluster.ShardedStore (routed and replicated over
// several perfdmfd servers), so analysis code is oblivious to whether the
// profile store is local, remote or a cluster.
//
// Implementations must enforce copy-on-read: a Trial returned by GetTrial
// is the caller's to mutate and never aliases internal state.
type Store interface {
	// Save stores the trial (validating first). The store keeps its own
	// copy; later mutations of t by the caller are not observed.
	Save(t *Trial) error
	// GetTrial loads a trial by its (application, experiment, name)
	// coordinates. The returned trial is a private copy.
	GetTrial(app, experiment, trial string) (*Trial, error)
	// Delete removes a trial. Deleting an absent trial is not an error.
	Delete(app, experiment, trial string) error
	// Applications lists application names, sorted.
	Applications() []string
	// Experiments lists experiment names for an application, sorted.
	Experiments(app string) []string
	// Trials lists trial names for an (application, experiment) pair,
	// sorted.
	Trials(app, experiment string) []string
}

// ContextStore is the optional extension of Store implemented by stores
// that honor context cancellation and tracing: the context carries the
// deadline and (when tracing is on) the obs span under which the store
// operation should appear. Callers that hold a context should prefer
// these; StoreWithContext falls back to the plain methods otherwise.
type ContextStore interface {
	Store
	SaveContext(ctx context.Context, t *Trial) error
	GetTrialContext(ctx context.Context, app, experiment, trial string) (*Trial, error)
	DeleteContext(ctx context.Context, app, experiment, trial string) error
}

// SaveWithContext saves through the ContextStore extension when s provides
// it, else through plain Save.
func SaveWithContext(ctx context.Context, s Store, t *Trial) error {
	if cs, ok := s.(ContextStore); ok {
		return cs.SaveContext(ctx, t)
	}
	return s.Save(t)
}

// GetTrialWithContext loads through the ContextStore extension when s
// provides it, else through plain GetTrial.
func GetTrialWithContext(ctx context.Context, s Store, app, experiment, trial string) (*Trial, error) {
	if cs, ok := s.(ContextStore); ok {
		return cs.GetTrialContext(ctx, app, experiment, trial)
	}
	return s.GetTrial(app, experiment, trial)
}

// DeleteWithContext deletes through the ContextStore extension when s
// provides it, else through plain Delete.
func DeleteWithContext(ctx context.Context, s Store, app, experiment, trial string) error {
	if cs, ok := s.(ContextStore); ok {
		return cs.DeleteContext(ctx, app, experiment, trial)
	}
	return s.Delete(app, experiment, trial)
}

var (
	_ Store        = (*Repository)(nil)
	_ ContextStore = (*Repository)(nil)
)
