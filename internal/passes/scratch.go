package passes

import (
	"sync"
	"sync/atomic"

	"repro/internal/ir"
)

// scratch bundles the transient tables the hot passes need. Instances are
// pooled so a long tuning run (hundreds of thousands of pass executions over
// small functions) does not re-grow them on every invocation. Tables indexed
// by instruction are dense, by Instr.ID after a renumbering (byID): a mark set
// is a slice of epoch stamps, so starting a fresh one costs one increment, not
// a clear. Worklists are handed out at length zero with capacity retained.
type scratch struct {
	// byID is the function's instructions in ID order (InstrsByID):
	// byID[in.ID] == in proves in is one of them before its ID is trusted.
	byID []*ir.Instr
	// marks is the current mark set: ID k is marked when marks[k] == epoch.
	marks []uint32
	epoch uint32
	work  []*ir.Instr
	// valueSub's substitutes, by ID.
	subVals []ir.Value
	// runCSE's value numbers and scoped expression table.
	vn    valueNumbers
	exprs exprTable
	// mergefunc's key buffer and numbering tables.
	keys mergeKeyer
	// slpOneChain's chain terms and matched terms.
	slpTerms, slpMatched []slpTerm
}

var scratchPool = sync.Pool{
	New: func() any {
		passPoolNews.Add(1)
		return new(scratch)
	},
}

// newMarks starts an empty mark set over IDs [0, n).
func (s *scratch) newMarks(n int) {
	if cap(s.marks) < n {
		s.marks = make([]uint32, n)
		s.epoch = 0
	}
	s.marks = s.marks[:n]
	s.epoch++
	if s.epoch == 0 { // wrapped: old stamps could read as current
		clear(s.marks[:cap(s.marks)])
		s.epoch = 1
	}
}

func (s *scratch) mark(id int)        { s.marks[id] = s.epoch }
func (s *scratch) marked(id int) bool { return s.marks[id] == s.epoch }

// Process-global pass scratch-pool counters (Prometheus/env-field reporting
// only: pool behaviour is scheduling-dependent, so these must never reach
// canonical journal fields).
var passPoolGets, passPoolNews atomic.Uint64

// PoolCounters returns the cumulative pass scratch-pool acquisitions and the
// subset that had to allocate fresh scratch.
func PoolCounters() (gets, news uint64) {
	return passPoolGets.Load(), passPoolNews.Load()
}

func getScratch() *scratch {
	passPoolGets.Add(1)
	return scratchPool.Get().(*scratch)
}

func putScratch(s *scratch) {
	clear(s.byID) // the pool must not keep IR alive
	s.byID = s.byID[:0]
	s.work = s.work[:0]
	clear(s.subVals)
	s.subVals = s.subVals[:0]
	s.vn.reset()
	s.exprs.reset()
	clear(s.keys.ipos) // the last key's tables
	clear(s.keys.bpos)
	clear(s.slpTerms[:cap(s.slpTerms)])
	clear(s.slpMatched[:cap(s.slpMatched)])
	scratchPool.Put(s)
}
