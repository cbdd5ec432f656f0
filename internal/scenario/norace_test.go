//go:build !race

package scenario

// nodeLossTimeScale is the live playback compression TestNodeLossEveryVictim
// uses: zero selects the spec's own (see race_test.go).
const nodeLossTimeScale = 0
