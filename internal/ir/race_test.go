//go:build race

package ir

// raceEnabled: under the race detector sync.Pool drops a share of what is put
// into it, so pooled paths allocate and allocation-count tests do not apply.
const raceEnabled = true
