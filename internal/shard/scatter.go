package shard

import (
	"context"
	"sync"

	"scisparql/internal/core"
	"scisparql/internal/protocol"
)

// isTyped reports whether an error belongs to a class that is a
// failure of the query, not of the shard (timeout, cancellation,
// resource limit); such errors keep their type across the coordinator.
func isTyped(err error) bool {
	switch core.ErrorCode(err) {
	case protocol.CodeTimeout, protocol.CodeCancelled, protocol.CodeResourceLimit:
		return true
	}
	return false
}

// scatter runs fn once per shard, each on its own goroutine, and
// waits for all of them. The fan-out fails fast: the first error
// cancels the derived context handed to the remaining calls, and the
// call returns that first error (wrapped with the failing shard's
// name) once every goroutine has exited — a dead shard surfaces as a
// typed error, never as a hang or a leaked goroutine.
func (c *Coordinator) scatter(ctx context.Context, fn func(ctx context.Context, i int, sh Shard) error) error {
	c.stats.scatters.Add(1)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			if err := fn(ctx, i, sh); err != nil {
				c.perShard[i].errors.Add(1)
				c.stats.errors.Add(1)
				mu.Lock()
				if firstErr == nil {
					firstErr = wrapShardErr(sh.Name(), err)
					cancel()
				}
				mu.Unlock()
			}
		}(i, sh)
	}
	wg.Wait()
	return firstErr
}
