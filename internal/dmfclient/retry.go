package dmfclient

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"time"

	"perfknow/internal/obs"
)

// RetryPolicy controls how the client retries failed requests.
//
// Only safely repeatable work is ever retried: GET/DELETE requests, the
// read-only analyze/diagnose POSTs, and uploads carrying an idempotency
// key (which the server deduplicates). Retryable failures are transport
// errors, truncated/garbled 2xx bodies, 429, and 5xx responses; other 4xx
// responses are permanent. A Retry-After header (delay-seconds) raises the
// computed backoff, and the loop never sleeps past the request context's
// deadline — it gives up immediately instead, wrapping
// context.DeadlineExceeded.
type RetryPolicy struct {
	// MaxAttempts bounds total tries including the first (<= 0: 4;
	// 1 disables retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (<= 0: 50ms).
	BaseDelay time.Duration
	// MaxDelay caps one backoff step (<= 0: 2s).
	MaxDelay time.Duration
	// Seed feeds the deterministic jitter hash, so two clients with
	// different seeds desynchronize their retry storms while each client's
	// schedule stays reproducible.
	Seed uint64
}

// DefaultRetryPolicy returns the policy used when none is configured:
// 4 attempts, 50ms base backoff doubling to a 2s cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// WithRetryPolicy overrides the client's retry behavior wholesale. Zero
// fields fall back to the defaults; set MaxAttempts to 1 to disable
// retries entirely.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p.withDefaults() }
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// backoff computes the sleep before retry number attempt+1: exponential
// growth from BaseDelay capped at MaxDelay, with deterministic jitter in
// the upper half derived from (seed, method, path, attempt) — reproducible
// for one client, decorrelated across clients with different seeds. A
// server-provided Retry-After raises the result but never lowers it below
// the server's ask.
func (p RetryPolicy) backoff(method, path string, attempt int, retryAfter time.Duration) time.Duration {
	d := p.BaseDelay
	for i := 0; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", p.Seed, method, path, attempt)
	jitter := time.Duration(h.Sum64() % uint64(d/2+1))
	d = d/2 + jitter
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delay-seconds (what this service emits) or an HTTP-date (what reverse
// proxies and other servers in front of a peer emit). Absent, unparsable,
// or already-past values yield 0.
func parseRetryAfter(h http.Header) time.Duration {
	return parseRetryAfterAt(h, time.Now())
}

// parseRetryAfterAt is parseRetryAfter against an explicit clock, so the
// HTTP-date arithmetic is testable.
func parseRetryAfterAt(h http.Header, now time.Time) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	when, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	if d := when.Sub(now); d > 0 {
		return d
	}
	return 0
}

// sleepCtx sleeps for d or until ctx is done, returning ctx.Err() in the
// latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RetryStats is a snapshot of the client's retry activity.
type RetryStats struct {
	// Attempts counts every HTTP attempt issued, including first tries.
	Attempts int64
	// Retries counts attempts beyond the first for their request.
	Retries int64
}

// Stats reports how many attempts and retries this client has issued — a
// view over the client's obs.Registry counters
// (`client_http_attempts_total`, `client_http_retries_total`), the
// client-side twin of the server's /api/v1/metrics resilience counters.
func (c *Client) Stats() RetryStats {
	return RetryStats{
		Attempts: c.attempts.Value(),
		Retries:  c.retries.Value(),
	}
}

// Registry exposes the client's metrics registry (the one installed with
// WithRegistry, or the private default).
func (c *Client) Registry() *obs.Registry { return c.reg }

// nextIdempotencyKey mints a fresh upload key: unique per client instance
// and per logical upload, stable across that upload's retries.
func (c *Client) nextIdempotencyKey() string {
	return fmt.Sprintf("%s-%d", c.clientID, c.seq.Add(1))
}
