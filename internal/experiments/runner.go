package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powerroute/internal/core"
)

// parallelism is the worker budget each pool reads: experiment dispatch
// (RunStream/RunAll) and every in-figure parameter sweep bound their own
// concurrency by it independently, so nested levels can briefly run up to
// parallel² goroutines. That oversubscription is deliberate — the work is
// CPU-bound and the scheduler time-slices it; per-run buffers are small —
// and keeps the pools deadlock-free (a shared semaphore held across
// nesting levels could starve inner sweeps). Zero means
// DefaultParallelism.
var parallelism atomic.Int32

// DefaultParallelism is the worker count used when none is configured.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// SetParallelism sets the package-wide worker budget (n <= 0 restores the
// default). The CLI's -parallel flag lands here.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int32(n))
}

// Parallelism returns the configured worker budget.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return DefaultParallelism()
}

// forEach runs fn(0..n-1) on up to parallel goroutines. All n calls run to
// completion; the returned error is the lowest-index failure, so the error
// a caller observes does not depend on goroutine scheduling.
func forEach(parallel, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if parallel <= 0 {
		parallel = Parallelism()
	}
	if parallel > n {
		parallel = n
	}
	if parallel == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runTasks executes heterogeneous closures concurrently under the package
// worker budget, failing with the lowest-index error.
func runTasks(tasks ...func() error) error {
	return forEach(0, len(tasks), func(i int) error { return tasks[i]() })
}

// runConfigs executes a sweep of optimizer configurations concurrently and
// returns the outcomes in input order. Entries that share a (horizon,
// energy) pair dedupe their baseline, and entries another figure already
// ran reuse its outcome, through the System's single-flight caches.
func runConfigs(sys *core.System, cfgs []core.RunConfig) ([]*core.Outcome, error) {
	outs := make([]*core.Outcome, len(cfgs))
	err := forEach(0, len(cfgs), func(i int) error {
		var err error
		outs[i], err = sys.Run(cfgs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// RunStream executes defs on a bounded worker pool and delivers each result
// to emit in defs order — as soon as it and every predecessor have
// finished, so output streams while later experiments are still running.
// The rendered results are identical to a serial run; only wall time
// changes. parallel <= 0 uses the package default; 1 degenerates to a
// serial loop. On failure the lowest-index error is returned and workers
// stop picking up new experiments.
func RunStream(env *Env, defs []Definition, parallel int, emit func(res *Result, took time.Duration) error) error {
	type item struct {
		res  *Result
		took time.Duration
		err  error
	}
	n := len(defs)
	if n == 0 {
		return nil
	}
	if parallel <= 0 {
		parallel = Parallelism()
	}
	if parallel > n {
		parallel = n
	}
	slots := make([]chan item, n)
	for i := range slots {
		slots[i] = make(chan item, 1)
	}
	var next atomic.Int64
	var stopped atomic.Bool
	for w := 0; w < parallel; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if stopped.Load() {
					// The consumer already returned; push a placeholder so
					// the slot is filled without doing the work.
					slots[i] <- item{}
					continue
				}
				start := time.Now()
				res, err := defs[i].Run(env)
				if err != nil {
					err = fmt.Errorf("%s: %w", defs[i].ID, err)
				}
				slots[i] <- item{res: res, took: time.Since(start), err: err}
			}
		}()
	}
	for i := 0; i < n; i++ {
		it := <-slots[i]
		if it.err != nil {
			stopped.Store(true)
			return it.err
		}
		if err := emit(it.res, it.took); err != nil {
			stopped.Store(true)
			return err
		}
	}
	return nil
}

// RunAll executes defs concurrently and returns the results in defs order.
func RunAll(env *Env, defs []Definition, parallel int) ([]*Result, error) {
	out := make([]*Result, 0, len(defs))
	err := RunStream(env, defs, parallel, func(res *Result, _ time.Duration) error {
		out = append(out, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
