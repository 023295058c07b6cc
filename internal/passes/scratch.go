package passes

import (
	"sync"
	"sync/atomic"

	"repro/internal/ir"
)

// scratch bundles the transient marking sets and worklists the hot DCE-family
// passes need. Instances are pooled so a long tuning run (hundreds of
// thousands of pass executions over small functions) does not re-grow the
// same maps on every invocation. Maps are handed out empty and cleared on
// release; the worklist is handed out at length zero with capacity retained.
type scratch struct {
	iset map[*ir.Instr]bool
	work []*ir.Instr
	// runCSE's expression table and the log of keys added to it.
	exprs map[instrKey]*ir.Instr
	added []instrKey
	// mergefunc's key buffer and numbering tables.
	keys mergeKeyer
}

var scratchPool = sync.Pool{
	New: func() any {
		passPoolNews.Add(1)
		return &scratch{
			iset:  make(map[*ir.Instr]bool),
			exprs: make(map[instrKey]*ir.Instr),
		}
	},
}

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
	clear(s.iset)
	s.work = s.work[:0]
	// runCSE leaves both empty, popped log entries zeroed, unless it panicked.
	if len(s.exprs) > 0 {
		clear(s.exprs)
	}
	clear(s.added)
	s.added = s.added[:0]
	clear(s.keys.ipos) // the last key's tables; the pool must not keep IR alive
	clear(s.keys.bpos)
	scratchPool.Put(s)
}
