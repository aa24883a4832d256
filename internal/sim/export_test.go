package sim

// What the tests in package sim_test need of the engine's inside. They live
// outside the package because they drive the applications, which import it.

// OnNewEngine has every engine built from now on shown to f first; nil stops
// it. Not for tests that run in parallel.
func OnNewEngine(f func(*Engine)) { newEngineHook = f }

// BypassMemo makes the engine price every kernel execution.
func (e *Engine) BypassMemo() { e.memoOff = true }

// Priced returns how many kernels the engine has priced.
func (e *Engine) Priced() uint64 { return e.priced }

// BypassRepeat makes Repeat run every sweep.
func (e *Engine) BypassRepeat() { e.rep.off = true }

// Replayed returns how many sweeps Repeat charged without running them.
func (e *Engine) Replayed() uint64 { return e.rep.replayed }
