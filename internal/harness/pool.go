package harness

import (
	"runtime"
	"sync"
)

// forEachIndex calls fn(i) for every i in [0, n) on a bounded pool of
// goroutines and returns the pool size it used: workers, or GOMAXPROCS
// when workers <= 0, capped at n. Callers write each result into slot i
// of a preallocated slice, so what they assemble afterwards never depends
// on scheduling.
func forEachIndex(n, workers int, fn func(i int)) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n && n > 0 {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return workers
}
