package dmfwire

import (
	"fmt"
	"net/url"
	"slices"
	"strings"
)

// Route is one row of the perfdmfd API. The daemon registers every row with
// its handler, the client builds every request path with Path and takes its
// retry decision from Retry, and TestRoutesDocumented holds the endpoint
// table of DESIGN.md to the rows.
type Route struct {
	Method string
	// Pattern is the path as net/http's ServeMux matches it; each {name}
	// wildcard is one path segment.
	Pattern string
	Retry   Retry
}

// Retry says how a client may repeat a request whose answer it did not get.
type Retry uint8

const (
	Idempotent Retry = iota // repeated as it is
	Keyed                   // repeated under the one Idempotency-Key the client mints for it
	Once                    // one attempt: the gossip exchange is a liveness probe
)

// String is the route's ServeMux pattern, "METHOD /path": its metric label
// and its name in DESIGN.md.
func (r Route) String() string { return r.Method + " " + r.Pattern }

// Path fills the pattern's wildcards, in order, with args, each escaped
// with url.PathEscape, so a name holding '/', '%' or a space comes back
// unchanged from the daemon's r.PathValue. A wrong count of args panics.
func (r Route) Path(args ...string) string {
	if strings.Count(r.Pattern, "{") != len(args) {
		panic(fmt.Sprintf("dmfwire: %s given %d path arguments", r, len(args)))
	}
	var b strings.Builder
	rest := r.Pattern
	for _, arg := range args {
		before, after, _ := strings.Cut(rest, "{")
		_, rest, _ = strings.Cut(after, "}")
		b.WriteString(before + url.PathEscape(arg))
	}
	return b.String() + rest
}

var routes []Route

func route(method, pattern string, retry Retry) Route {
	routes = append(routes, Route{method, pattern, retry})
	return routes[len(routes)-1]
}

// Routes returns every row, in the order declared below.
func Routes() []Route { return slices.Clone(routes) }

var (
	GetHealth  = route("GET", "/healthz", Idempotent)
	GetMetrics = route("GET", "/api/v1/metrics", Idempotent)
	RunFsck    = route("GET", "/api/v1/fsck", Idempotent)
	ListTraces = route("GET", "/api/v1/traces", Idempotent)
	GetTrace   = route("GET", "/api/v1/traces/{id}", Idempotent)

	// The client lists through the query-param listings (?app=&experiment=);
	// the resource listings under /api/v1/apps answer with the same bodies.
	ListApplications     = route("GET", "/api/v1/applications", Idempotent)
	ListExperiments      = route("GET", "/api/v1/experiments", Idempotent)
	ListTrials           = route("GET", "/api/v1/trials", Idempotent)
	UploadTrial          = route("POST", "/api/v1/trials", Keyed)
	ListApps             = route("GET", "/api/v1/apps", Idempotent)
	ListAppExperiments   = route("GET", "/api/v1/apps/{app}/experiments", Idempotent)
	ListExperimentTrials = route("GET", "/api/v1/apps/{app}/experiments/{exp}/trials", Idempotent)
	GetTrial             = route("GET", "/api/v1/apps/{app}/experiments/{exp}/trials/{trial}", Idempotent)
	DeleteTrial          = route("DELETE", "/api/v1/apps/{app}/experiments/{exp}/trials/{trial}", Idempotent)

	// Read-only server-side, so repeated like a GET.
	Analyze  = route("POST", "/api/v1/analyze", Idempotent)
	Diagnose = route("POST", "/api/v1/diagnose", Idempotent)

	GetRing        = route("GET", "/api/v1/cluster", Idempotent)
	AnnounceRing   = route("POST", "/api/v1/cluster", Idempotent)
	ExchangeGossip = route("POST", "/api/v1/cluster/gossip", Once)
	GetGossipView  = route("GET", "/api/v1/cluster/gossip", Idempotent)

	OpenStream      = route("POST", "/api/v1/streams", Keyed)
	ListStreams     = route("GET", "/api/v1/streams", Idempotent)
	GetStream       = route("GET", "/api/v1/streams/{id}", Idempotent)
	AbortStream     = route("DELETE", "/api/v1/streams/{id}", Idempotent)
	AppendChunk     = route("POST", "/api/v1/streams/{id}/chunks", Idempotent)
	SealStream      = route("POST", "/api/v1/streams/{id}/seal", Idempotent)
	SubscribeAlerts = route("GET", "/api/v1/streams/{id}/alerts", Idempotent)
)
