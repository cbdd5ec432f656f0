//go:build race

package scenario

// nodeLossTimeScale is the live playback compression TestNodeLossEveryVictim
// uses. The race detector slows the event plane several-fold, and at the
// spec's 10x compression a race-instrumented run sharing two CPUs with
// other packages' tests missed over 40% of its (equally compressed)
// deadlines; playing back at 3x keeps every invariant, the miss-rate ceiling
// included, meaningful under instrumentation.
const nodeLossTimeScale = 3
