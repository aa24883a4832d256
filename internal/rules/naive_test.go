package rules

// The scan-everything matcher: what Engine.Run did before the Rete network
// (rete.go) replaced it, kept here as the differential oracle. Every cycle
// it re-enumerates all activations from working memory and picks the best
// unfired one with the engine's own better(); firing, refraction memory and
// result accumulation are the engine's (fireOne), so the two can differ
// only in what they match — which is what differential_test.go compares.
// An oracle engine never builds a network: nothing calls its Run.

import (
	"context"
	"fmt"
)

// naiveRun is the oracle's Engine.Run.
func naiveRun(e *Engine) (*Result, error) {
	for cycle := 0; ; cycle++ {
		if cycle >= e.MaxCycles {
			return nil, fmt.Errorf("rules: no quiescence after %d cycles (rule loop?)", e.MaxCycles)
		}
		acts, err := matchAll(e)
		if err != nil {
			return nil, err
		}
		var next *activation
		for i := range acts {
			a := &acts[i]
			if e.fired[a.key] {
				continue
			}
			if next == nil || better(a, next) {
				next = a
			}
		}
		if next == nil {
			break
		}
		if err := e.fireOne(context.Background(), next); err != nil {
			return nil, err
		}
	}
	return e.result(), nil
}

// matchAll enumerates every (rule, fact-tuple) activation in the current
// working memory, rule by rule, pattern by pattern, fact by fact in
// assertion order.
func matchAll(e *Engine) ([]activation, error) {
	e.mu.Lock()
	facts := e.orderedFactsLocked()
	e.mu.Unlock()
	var acts []activation
	for ri, r := range e.rules {
		envs := []Bindings{{}}
		ids := [][]int64{nil}
		for pi := range r.Patterns {
			p := &r.Patterns[pi]
			var nextEnvs []Bindings
			var nextIDs [][]int64
			for ei, env := range envs {
				if p.Negated || p.Exists {
					found := false
					for _, f := range facts {
						_, ok, err := p.match(f, env)
						if err != nil {
							return nil, fmt.Errorf("rules: rule %q: %w", r.Name, err)
						}
						if ok {
							found = true
							break
						}
					}
					// Negated keeps the env when nothing matched; Exists
					// keeps it when something did. Neither contributes
					// bindings or tuple identity.
					if found == p.Exists {
						nextEnvs = append(nextEnvs, env)
						nextIDs = append(nextIDs, ids[ei])
					}
					continue
				}
				for _, f := range facts {
					newEnv, ok, err := p.match(f, env)
					if err != nil {
						return nil, fmt.Errorf("rules: rule %q: %w", r.Name, err)
					}
					if ok {
						nextEnvs = append(nextEnvs, newEnv)
						nextIDs = append(nextIDs, append(append([]int64(nil), ids[ei]...), f.id))
					}
				}
			}
			envs, ids = nextEnvs, nextIDs
			if len(envs) == 0 {
				break
			}
		}
		if len(r.Patterns) == 0 {
			continue // a rule with no patterns never fires
		}
		for i, env := range envs {
			key := r.Name + "|" + tupleKey(ids[i])
			acts = append(acts, activation{rule: r, bindings: env, key: key, order: ri})
		}
	}
	return acts, nil
}
