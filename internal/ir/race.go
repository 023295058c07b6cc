//go:build race

package ir

// raceEnabled: under the race detector sync.Pool drops a share of what is put
// into it, so pooled paths allocate and allocation-count tests do not apply;
// and every miss of a CFG membership query proves the block really is absent
// from the CFG's block list (CFG.checkAbsent), so a pass that queries
// analyses across a re-index fails loudly wherever tests run under -race.
const raceEnabled = true
