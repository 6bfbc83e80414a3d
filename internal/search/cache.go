package search

import "sync"

// rewardCache memoizes state rewards by difftree state hash. One instance is
// shared by every MCTS worker, so a state reached by two workers is
// rewarded exactly once: the per-entry sync.Once single-flights the
// computation and blocks concurrent requesters until the value is ready.
// Sharding keeps workers from serializing on one lock.
//
// Sharing is sound because rewards are pure: the estimate is derived from a
// per-state RNG seeded by (Params.Seed, state hash), so every worker — and
// every run with the same seed — would compute the identical value.
type rewardCache struct {
	shards [rewardShards]rewardShard
}

const rewardShards = 16

type rewardShard struct {
	mu      sync.Mutex
	entries map[uint64]*rewardEntry
}

type rewardEntry struct {
	once sync.Once
	r    float64
}

func newRewardCache() *rewardCache {
	rc := &rewardCache{}
	for i := range rc.shards {
		rc.shards[i].entries = map[uint64]*rewardEntry{}
	}
	return rc
}

// get returns the memoized reward for the state hash, calling compute at
// most once across all goroutines.
func (rc *rewardCache) get(h uint64, compute func() float64) float64 {
	sh := &rc.shards[h%rewardShards]
	sh.mu.Lock()
	e, ok := sh.entries[h]
	if !ok {
		e = &rewardEntry{}
		sh.entries[h] = e
	}
	sh.mu.Unlock()
	e.once.Do(func() { e.r = compute() })
	return e.r
}

// size reports the number of memoized states (for tests and stats).
func (rc *rewardCache) size() int {
	n := 0
	for i := range rc.shards {
		sh := &rc.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}
