package dmfclient

import (
	"context"
	"fmt"

	"perfknow/internal/dmfwire"
	"perfknow/internal/perfdmf"
)

// ClusterRing fetches the ring descriptor this daemon currently holds
// (GET /api/v1/cluster). Cluster-routing clients cross-check it against
// their own descriptor before trusting placement (see
// cluster.ShardedStore.VerifyRing). A daemon running standalone answers
// 404, which surfaces as perfdmf.ErrNotFound; a descriptor that fails its
// checksum or validation wraps dmfwire.ErrRing.
func (c *Client) ClusterRing(ctx context.Context) (*dmfwire.Ring, error) {
	var raw []byte
	if err := c.doCtx(ctx, request{route: dmfwire.GetRing}, &raw); err != nil {
		return nil, err
	}
	r, err := dmfwire.DecodeRing(raw)
	if err != nil {
		return nil, fmt.Errorf("dmfclient: %s: %w", dmfwire.GetRing, err)
	}
	return &r, nil
}

// AnnounceRing posts a new ring descriptor to this daemon
// (POST /api/v1/cluster). The daemon adopts it if the epoch is newer than
// what it holds, and gossip spreads it to every other member from there —
// this is how an operator announces an epoch bump to ONE seed and lets the
// cluster converge without restarts. Returns whether this daemon adopted
// the descriptor (false means it already held that epoch or newer).
func (c *Client) AnnounceRing(ctx context.Context, desc dmfwire.Ring) (bool, error) {
	data, err := dmfwire.EncodeRing(desc.Canonical())
	if err != nil {
		return false, err
	}
	resp, err := fetch[dmfwire.AnnounceResponse](ctx, c, request{route: dmfwire.AnnounceRing, body: data, contentType: dmfwire.RingContentType})
	if err != nil {
		return false, err
	}
	return resp.Adopted, nil
}

// Gossip performs one membership exchange (POST /api/v1/cluster/gossip):
// send our view, receive the peer's merged view. A completed exchange is a
// successful liveness probe, so the request gets exactly one attempt — the
// caller's probe loop is the retry policy, and client-level retries would
// only blur failure detection latency.
func (c *Client) Gossip(ctx context.Context, m dmfwire.Membership) (*dmfwire.Membership, error) {
	data, err := dmfwire.EncodeMembership(m)
	if err != nil {
		return nil, err
	}
	var raw []byte
	if err := c.doCtx(ctx, request{route: dmfwire.ExchangeGossip, body: data, contentType: dmfwire.MembershipContentType}, &raw); err != nil {
		return nil, err
	}
	reply, err := dmfwire.DecodeMembership(raw)
	if err != nil {
		return nil, fmt.Errorf("dmfclient: %s: %w", dmfwire.ExchangeGossip, err)
	}
	return &reply, nil
}

// ClusterGossipView fetches the operator-facing membership view
// (GET /api/v1/cluster/gossip): per-peer incarnations and states, the
// current epoch, and the pending-hint backlog.
func (c *Client) ClusterGossipView(ctx context.Context) (*dmfwire.GossipView, error) {
	return fetch[dmfwire.GossipView](ctx, c, request{route: dmfwire.GetGossipView})
}

// SaveHintedContext stores a trial on this daemon AND asks it to keep a
// durable hint that owner should have received the write: the daemon's
// handoff loop replays the trial to owner once it is alive again. Used by
// the cluster router when a replica owner is down (see
// cluster.HintedBackend).
func (c *Client) SaveHintedContext(ctx context.Context, t *perfdmf.Trial, owner string) error {
	return c.saveEncoded(ctx, t, owner)
}

// SaveTrialBody replays the body of a stored hint to this daemon: the
// trial's encoded form, or trial JSON in hints written by older daemons.
// The bytes are posted verbatim so a hint written by one version replays
// unchanged by another.
func (c *Client) SaveTrialBody(ctx context.Context, body []byte) error {
	return c.postTrial(ctx, body, "")
}
