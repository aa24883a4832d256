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
// Every operation that moves a trial takes a context: it carries the
// deadline and (when tracing is on) the obs span under which the store
// operation should appear. Listings return their error, so a caller can
// tell an empty store from an unreachable one.
//
// Implementations must enforce copy-on-read: a Trial returned by
// GetTrialContext is the caller's to mutate and never aliases internal
// state.
type Store interface {
	// SaveContext stores the trial (validating first). The store keeps its
	// own copy; later mutations of t by the caller are not observed.
	SaveContext(ctx context.Context, t *Trial) error
	// GetTrialContext loads a trial by its (application, experiment, name)
	// coordinates. The returned trial is a private copy.
	GetTrialContext(ctx context.Context, app, experiment, trial string) (*Trial, error)
	// DeleteContext removes a trial. Deleting an absent trial is not an
	// error.
	DeleteContext(ctx context.Context, app, experiment, trial string) error
	// ListApplications lists application names, sorted.
	ListApplications() ([]string, error)
	// ListExperiments lists experiment names for an application, sorted.
	ListExperiments(app string) ([]string, error)
	// ListTrials lists trial names for an (application, experiment) pair,
	// sorted.
	ListTrials(app, experiment string) ([]string, error)
}

// ContextStore is Store under its earlier name.
//
// Deprecated: use Store.
type ContextStore = Store

var _ Store = (*Repository)(nil)
