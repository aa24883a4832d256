package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// historySeed chooses the interleaving TestClusterHistoryDeterministic
// replays: which operation comes next, which member is ticked, killed or
// restarted, and the order of every fan-out.
const historySeed = 27

// historyOps is the length of the replayed history.
const historyOps = 1000

// historyDigest and historyLog are the first run's digest and event log in
// this test process; every further run (-count N) must reproduce them.
var historyDigest, historyLog string

// TestClusterHistoryDeterministic replays a seeded history of saves,
// overwrites, reads, listings and deletes through a ShardedStore over
// three members, interleaved with gossip and repair ticks and with one
// member killed and restarted, and digests everything the history leaves
// behind. The same seed must give the same digest on every run.
func TestClusterHistoryDeterministic(t *testing.T) {
	start := time.Now()
	got, log := runHistory(t, historySeed, historyOps)
	t.Logf("seed %d: %d operations in %v, digest %s", historySeed, historyOps, time.Since(start), got)
	if historyDigest == "" {
		historyDigest, historyLog = got, log
		return
	}
	if got == historyDigest {
		return
	}
	was, now := strings.Split(historyLog, "\n"), strings.Split(log, "\n")
	for i := range min(len(was), len(now)) {
		if was[i] != now[i] {
			t.Fatalf("seed %d diverged at event log line %d:\n  earlier: %s\n  now:     %s", historySeed, i+1, was[i], now[i])
		}
	}
	t.Fatalf("seed %d replayed to digest %s, an earlier run gave %s (the event logs agree; the files differ)", historySeed, got, historyDigest)
}

// runHistory plays ops seeded steps on a fresh 3-member cluster (R=2) and
// returns the SHA-256 over every member's repository and hints files and
// the event log, and the event log itself.
func runHistory(t *testing.T, seed uint64, ops int) (digest, log string) {
	c := newSimCluster(t, seed, 3, 2)
	ctx := context.Background()
	rng := c.rng
	pick := func(prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, rng.IntN(n)) }
	down := ""
	for op := 0; op < ops; op++ {
		app, exp, name := pick("app", 2), pick("exp", 4), pick("t", 5)
		switch k := rng.IntN(100); {
		case k < 30: // save; an existing name is an overwrite
			tr := trial(app, exp, name)
			tr.Metadata["version"] = fmt.Sprint(op)
			fmt.Fprintf(&c.log, "%d save %s/%s/%s: %v\n", op, app, exp, name, c.store.SaveContext(ctx, tr))
		case k < 55:
			tr, err := c.store.GetTrialContext(ctx, app, exp, name)
			if err == nil {
				fmt.Fprintf(&c.log, "%d get %s/%s/%s: version %s\n", op, app, exp, name, tr.Metadata["version"])
			} else {
				fmt.Fprintf(&c.log, "%d get %s/%s/%s: %v\n", op, app, exp, name, err)
			}
		case k < 65:
			var names []string
			var err error
			switch rng.IntN(3) {
			case 0:
				names, err = c.store.ListApplications()
			case 1:
				names, err = c.store.ListExperiments(app)
			default:
				names, err = c.store.ListTrials(app, exp)
			}
			fmt.Fprintf(&c.log, "%d list %s/%s: %v %v\n", op, app, exp, names, err)
		case k < 72:
			fmt.Fprintf(&c.log, "%d delete %s/%s/%s: %v\n", op, app, exp, name, c.store.DeleteContext(ctx, app, exp, name))
		case k < 92:
			live := c.live()
			m := live[rng.IntN(len(live))]
			c.clk.advance(simProbe / 2)
			fmt.Fprintf(&c.log, "%d gossip %s\n", op, m.url)
			m.agent.gossipTick(ctx)
		case k < 97:
			live := c.live()
			m := live[rng.IntN(len(live))]
			fmt.Fprintf(&c.log, "%d repair %s\n", op, m.url)
			m.agent.repairTick(ctx)
		case down == "":
			down = c.urls[rng.IntN(len(c.urls))]
			fmt.Fprintf(&c.log, "%d kill %s\n", op, down)
			c.kill(down)
		default:
			fmt.Fprintf(&c.log, "%d restart %s\n", op, down)
			c.restart(down)
			down = ""
		}
	}

	h := sha256.New()
	for _, u := range c.urls {
		m := c.members[u]
		for _, root := range []string{m.dir, m.hintsDir} {
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				data, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				rel, _ := filepath.Rel(root, path)
				fmt.Fprintf(h, "%s %s %d\n", u, filepath.ToSlash(rel), len(data))
				h.Write(data)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	log = c.log.String()
	if strings.Contains(log, os.TempDir()) {
		t.Fatalf("the event log names a temporary path, so no two runs can agree")
	}
	h.Write([]byte(log))
	return hex.EncodeToString(h.Sum(nil)), log
}
