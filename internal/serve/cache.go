package serve

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"reactivenoc/internal/chip"
)

// resultCache memoizes chip.Results by spec fingerprint across a fixed set
// of shards: the fingerprint hash picks the shard, so submissions for
// different specs contend on different locks. Each shard is an independent
// LRU bounded at perShard entries, and also carries the shard's in-flight
// index — the dedup table that coalesces an identical submission onto the
// job already queued or running for it. Keeping cache and dedup state in
// the same shard means one lock acquisition decides hit / join / miss
// atomically, so two racing submissions of a new spec can never both
// become simulations.
type resultCache struct {
	shards   []cacheShard
	perShard int

	hits, misses, evictions atomic.Int64
}

type cacheShard struct {
	mu  sync.Mutex
	lru *list.List               // front = most recent; values are *cacheEntry
	byF map[string]*list.Element // fingerprint -> lru element
	// inflight maps fingerprints to the live job that will produce their
	// result (dedup target).
	inflight map[string]*job
}

type cacheEntry struct {
	fp  string
	res *chip.Results
}

// newResultCache builds shards sized so the whole cache holds ~capacity
// entries. Shard count is fixed and small; capacity below the shard count
// still leaves one entry per shard.
func newResultCache(capacity, shards int) *resultCache {
	if shards <= 0 {
		shards = 16
	}
	if capacity <= 0 {
		capacity = 512
	}
	per := (capacity + shards - 1) / shards
	c := &resultCache{shards: make([]cacheShard, shards), perShard: per}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].byF = map[string]*list.Element{}
		c.shards[i].inflight = map[string]*job{}
	}
	return c
}

// shardFor routes a fingerprint to its shard.
func (c *resultCache) shardFor(fp string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(fp))
	return &c.shards[h.Sum32()%uint32(len(c.shards))]
}

// admitOutcome is what a submission learned under one shard lock.
type admitOutcome int

const (
	admitHit  admitOutcome = iota // cached results returned
	admitJoin                     // coalesced onto an in-flight job
	admitNew                      // caller's job registered in-flight
)

// admit decides a submission's fate atomically: a cached result wins, an
// in-flight twin is joined, otherwise the caller's fresh job is registered
// as the fingerprint's in-flight owner.
func (c *resultCache) admit(fp string, fresh *job) (admitOutcome, *chip.Results, *job) {
	s := c.shardFor(fp)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byF[fp]; ok {
		s.lru.MoveToFront(el)
		c.hits.Add(1)
		return admitHit, el.Value.(*cacheEntry).res, nil
	}
	if twin, ok := s.inflight[fp]; ok {
		return admitJoin, nil, twin
	}
	c.misses.Add(1)
	s.inflight[fp] = fresh
	return admitNew, nil, nil
}

// complete stores a finished run's results (nil res for failures) and
// releases the fingerprint's in-flight slot.
func (c *resultCache) complete(fp string, res *chip.Results) {
	s := c.shardFor(fp)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, fp)
	if res == nil {
		return
	}
	if el, ok := s.byF[fp]; ok {
		el.Value.(*cacheEntry).res = res
		s.lru.MoveToFront(el)
		return
	}
	s.byF[fp] = s.lru.PushFront(&cacheEntry{fp: fp, res: res})
	for s.lru.Len() > c.perShard {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.byF, oldest.Value.(*cacheEntry).fp)
		c.evictions.Add(1)
	}
}

// release frees the in-flight slot without storing anything (canceled or
// journaled jobs).
func (c *resultCache) release(fp string) { c.complete(fp, nil) }

// size returns the cached-entry count across shards.
func (c *resultCache) size() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += int64(s.lru.Len())
		s.mu.Unlock()
	}
	return n
}
