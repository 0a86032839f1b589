package timing

import (
	"math"
	"runtime"
	"sync"

	"iterskew/internal/netlist"
)

// Level-synchronized parallel timing propagation, in the spirit of the
// parallel incremental timers the paper builds on (OpenTimer v2 and
// successors, [14]–[17]): pins on the same topological level have no
// arrival dependencies among each other, so each level is evaluated with a
// worker pool, with a barrier between levels. Net loads are refreshed
// serially first so the workers never touch the lazy load cache.

// chunked splits [0,n) into contiguous ranges and runs body on each from its
// own goroutine, waiting for all of them. body(lo, hi) must only touch state
// disjoint from the other chunks.
func chunked(workers, n int, body func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// FullUpdateParallel recomputes the clock network, all net loads, and all
// arrival and required times like FullUpdate, evaluating each topological
// level with `workers` goroutines (0 = GOMAXPROCS). Results are identical
// to FullUpdate.
func (t *Timer) FullUpdateParallel(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	t.Stats.FullUpdates++
	for i := range t.netDirty {
		t.netDirty[i] = true
	}
	t.refreshClock(nil, true, clockEps)
	t.clearDirty()
	t.slkValid = false

	// Refresh every net load serially: the workers then only read.
	t.refreshNetLoads()

	for i := range t.atMax {
		t.atMax[i] = math.Inf(-1)
		t.atMin[i] = math.Inf(1)
		t.reqMax[i] = math.Inf(1)
		t.reqMin[i] = math.Inf(-1)
	}

	// The level buckets are built eagerly at Compile and shared read-only.
	buckets := t.lvlBuckets
	run := func(bucket []netlist.PinID, eval func(netlist.PinID) bool) {
		if len(bucket) < parallelBucketMin || workers == 1 {
			for _, p := range bucket {
				eval(p)
			}
			return
		}
		chunked(workers, len(bucket), func(lo, hi int) {
			for _, p := range bucket[lo:hi] {
				eval(p)
			}
		})
	}

	for lvl := 0; lvl <= int(t.maxLvl); lvl++ {
		run(buckets[lvl], t.evalArrival)
	}
	for lvl := int(t.maxLvl); lvl >= 0; lvl-- {
		run(buckets[lvl], t.evalRequired)
	}
	t.Stats.ForwardPinVisits += int64(len(t.order))
	t.Stats.BackwardPinVisits += int64(len(t.order))
}
