package timing

import "sync"

// chunked splits [0,n) into contiguous ranges and runs body on each from its
// own goroutine, waiting for all of them. body(lo, hi) must only touch state
// disjoint from the other chunks. Update's worker path uses it to evaluate
// one topological level bucket at a time: pins on the same level have no
// arrival dependencies among each other, in the spirit of the parallel
// incremental timers the paper builds on (OpenTimer v2 and successors,
// [14]–[17]).
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
