// Package readcache memoizes the serving tier's expensive read-path
// computations — the autocorrelation detector runs, query encodings and
// dashboard renderings internal/api serves — keyed by the request's
// parameters plus a tsdb.ViewStamp, so a result is computed once per
// data epoch and reused until any contributing series' write-version
// moves (docs/SERVING.md §2-§3).
//
// The cache is a bounded LRU with singleflight request coalescing:
// concurrent lookups of the same key share one in-flight computation
// instead of racing N detector runs, the way the paper's InfluxDB/
// Grafana backend relies on Grafana's query result cache to survive
// dashboard fan-in. Hit, miss, eviction and coalesce counters are
// exposed for the /api/v1/stats endpoint.
//
// With EnableSWR the cache additionally serves stale-while-revalidate
// (docs/DETECTION.md §7): DoStale answers a stamp-change miss with the
// superseded predecessor's value immediately — identified by the key
// with its Stamp zeroed — while one deduplicated background refresh
// recomputes the current value on the configured runner. A staleness
// budget bounds how old a predecessor may be served, eviction removes
// a predecessor from stale service atomically with its entry, and a
// Purge generation keeps refreshes that started before a Purge from
// resurrecting dropped state.
package readcache

import (
	"container/list"
	"sync"
	"time"
)

// Key identifies one memoizable read-path computation. It is a plain
// comparable struct so it can index a map directly; the zero value of
// unused fields is fine (a query result has no Days, a congestion run
// no To).
type Key struct {
	// Kind discriminates the endpoint ("congestion", "query",
	// "dashboard", ...), keeping keys from different handlers disjoint.
	Kind string
	// ID is the canonical request identity within the kind: the
	// link\x00vp pair for congestion, the canonical tsdb series key for
	// queries.
	ID string
	// From and To bound the request's time range in Unix nanoseconds.
	From, To int64
	// Days is the congestion analysis window length.
	Days int
	// CfgHash fingerprints the analysis configuration
	// (analysis.AutocorrConfig.Hash), so a retuned detector never
	// serves results computed under the old tuning.
	CfgHash uint64
	// Stamp is the tsdb.ViewStamp over the request's contributing
	// series. A write to any of them moves the stamp, making the next
	// lookup miss — this field alone carries cache invalidation.
	Stamp uint64
	// Limit and Offset carry /api/v1/query pagination (docs/SERVING.md
	// §7), so differently paged responses never share an entry.
	Limit, Offset int
}

// base returns the key with its Stamp zeroed: the identity of "the same
// request against any data epoch". Stale-while-revalidate uses it to
// find the superseded predecessor of a stamp-change miss
// (docs/DETECTION.md §7).
func (k Key) base() Key { k.Stamp = 0; return k }

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Hits counts lookups served from a stored entry.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that ran the compute function.
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Coalesced counts lookups that joined another caller's in-flight
	// computation instead of starting their own.
	Coalesced uint64 `json:"coalesced"`
	// StaleServes counts DoStale lookups answered with a superseded
	// predecessor while a refresh proceeded (docs/DETECTION.md §7).
	StaleServes uint64 `json:"stale_serves"`
	// BackgroundRefreshes counts refresh computations DoStale scheduled
	// on the background runner (deduplicated: a stale serve joining an
	// in-flight refresh schedules nothing).
	BackgroundRefreshes uint64 `json:"background_refreshes"`
	// Entries is the current number of stored entries.
	Entries int `json:"entries"`
}

// DefaultMaxEntries bounds the cache when New is given n <= 0. Sized
// for a dashboard fleet: hundreds of (link, vp, window) combinations,
// each entry a few hundred KB of detector output at paper scale.
const DefaultMaxEntries = 256

// flight is one in-flight computation other callers can wait on.
type flight struct {
	wg  sync.WaitGroup
	val any
	err error
}

// entry is one stored result.
type entry struct {
	key Key
	val any
	// at is the store time, measured against the staleness budget when
	// the entry is a candidate for stale service.
	at time.Time
}

// Cache is a bounded LRU memo table with singleflight coalescing. The
// zero value is not usable; call New.
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used; values are *entry
	entries map[Key]*list.Element
	inFly   map[Key]*flight
	// base maps a zero-stamp base key to the most recently stored entry
	// sharing it: the stale-while-revalidate predecessor index. Kept
	// consistent with entries — eviction or Purge of an entry removes
	// its base mapping in the same critical section, so a stale body
	// can never outlive its entry.
	base map[Key]*list.Element

	// runner executes background refreshes when SWR is enabled
	// (EnableSWR); nil means DoStale degrades to Do semantics.
	runner func(func())
	// budget bounds how old a predecessor may be served stale
	// (<= 0: no bound).
	budget time.Duration
	// now is the clock, injectable for budget tests.
	now func() time.Time
	// gen increments on Purge; flights settle their results only into
	// the generation they started under (no resurrection).
	gen uint64

	hits, misses, evictions, coalesced uint64
	staleServes, backgroundRefreshes   uint64
}

// New returns an empty cache bounded to max entries (<= 0 means
// DefaultMaxEntries).
func New(max int) *Cache {
	if max <= 0 {
		max = DefaultMaxEntries
	}
	return &Cache{
		max:     max,
		ll:      list.New(),
		entries: make(map[Key]*list.Element),
		inFly:   make(map[Key]*flight),
		base:    make(map[Key]*list.Element),
		now:     time.Now,
	}
}

// EnableSWR turns on stale-while-revalidate service through DoStale:
// runner executes the deduplicated background refreshes (nil falls back
// to plain goroutines; the serving tier passes pipeline.Pool.Go), and
// budget bounds how old a superseded entry may be served stale (<= 0
// means no bound). Fresh-path behavior (Do, Get) is unchanged.
func (c *Cache) EnableSWR(runner func(func()), budget time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if runner == nil {
		runner = func(fn func()) { go fn() }
	}
	c.runner = runner
	c.budget = budget
}

// Do returns the cached value for key, or runs compute to produce it.
// Concurrent Do calls with the same key coalesce: exactly one runs
// compute, the rest block and share its result (hit=true for them, and
// for lookups served from the store). Errors are returned to every
// coalesced caller but never cached — the next lookup recomputes.
// compute runs without the cache lock held, so unrelated keys never
// serialize on one slow computation.
func (c *Cache) Do(key Key, compute func() (any, error)) (val any, hit bool, err error) {
	val, hit, _, err = c.lookup(key, false, compute)
	return val, hit, err
}

// Result describes how a DoStale lookup was served.
type Result struct {
	// Hit reports whether the value came from the store or an in-flight
	// computation rather than a foreground compute.
	Hit bool
	// Stale reports that the value is a superseded predecessor served
	// while a background refresh proceeds (docs/DETECTION.md §7).
	Stale bool
	// ServedKey is the key the returned value was stored under: the
	// request key itself, or the predecessor's key when Stale.
	ServedKey Key
}

// DoStale is Do with stale-while-revalidate (docs/DETECTION.md §7).
// An exact hit behaves like Do. On a miss whose base key (Stamp zeroed)
// matches a stored predecessor within the staleness budget — and SWR is
// enabled — DoStale returns that superseded value immediately, marked
// Stale, and schedules one deduplicated background refresh of the
// current key on the runner. Without SWR, a usable predecessor, or when
// the predecessor is over budget, it degrades to Do semantics.
func (c *Cache) DoStale(key Key, compute func() (any, error)) (any, Result, error) {
	val, hit, stale, err := c.lookup(key, true, compute)
	if stale != nil {
		return val, Result{Hit: true, Stale: true, ServedKey: *stale}, nil
	}
	return val, Result{Hit: hit, ServedKey: key}, err
}

// lookup is the one body behind Do and DoStale: an exact hit, then —
// only when stale service is allowed and enabled — a superseded
// predecessor within budget, returned with stale set to the key it was
// stored under, then a join onto an in-flight computation, and finally
// a miss that runs compute in the foreground.
func (c *Cache) lookup(key Key, allowStale bool, compute func() (any, error)) (val any, hit bool, stale *Key, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		val = el.Value.(*entry).val
		c.mu.Unlock()
		return val, true, nil, nil
	}
	if allowStale && c.runner != nil {
		if el, ok := c.base[key.base()]; ok {
			e := el.Value.(*entry)
			if c.budget <= 0 || c.now().Sub(e.at) <= c.budget {
				// Capture the stale value and its key under the lock:
				// storeLocked's refresh path mutates e.val, and eviction
				// can drop the entry the moment we release the mutex.
				val = e.val
				served := e.key
				c.staleServes++
				if _, inFlight := c.inFly[key]; !inFlight {
					f := &flight{}
					f.wg.Add(1)
					c.inFly[key] = f
					c.misses++
					c.backgroundRefreshes++
					gen := c.gen
					c.mu.Unlock()
					c.runner(func() { c.runFlight(key, f, gen, compute, false) })
				} else {
					c.mu.Unlock()
				}
				return val, true, &served, nil
			}
		}
	}
	if f, ok := c.inFly[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		f.wg.Wait()
		return f.val, true, nil, f.err
	}
	f := &flight{}
	f.wg.Add(1)
	c.inFly[key] = f
	c.misses++
	gen := c.gen
	c.mu.Unlock()

	c.runFlight(key, f, gen, compute, true)
	return f.val, false, nil, f.err
}

// runFlight executes a computation whose flight is already registered,
// settling the flight even if compute panics, so a panicking compute
// cannot deadlock every coalesced request behind it: waiters see
// errPanicked. A foreground caller (repanic) re-raises the panic after
// the flight is torn down; a background refresh on the SWR runner
// swallows it, since nobody is on its call stack to re-panic on.
func (c *Cache) runFlight(key Key, f *flight, gen uint64, compute func() (any, error), repanic bool) {
	defer func() {
		r := recover()
		if r != nil {
			f.err = errPanicked
		}
		c.settleFlight(key, f, gen)
		if r != nil && repanic {
			panic(r)
		}
	}()
	f.val, f.err = compute()
}

// settleFlight deregisters a finished flight, stores its result if it
// succeeded and the cache has not been purged since the flight started
// (so a refresh racing a Purge cannot resurrect dropped state), and
// releases the waiters.
func (c *Cache) settleFlight(key Key, f *flight, gen uint64) {
	c.mu.Lock()
	delete(c.inFly, key)
	if f.err == nil && gen == c.gen {
		c.storeLocked(key, f.val)
	}
	c.mu.Unlock()
	f.wg.Done()
}

// errPanicked is handed to coalesced waiters whose leader panicked.
var errPanicked = panicError{}

// panicError is the error coalesced waiters receive when the computing
// caller panicked; the panic itself propagates on the leader.
type panicError struct{}

// Error describes the failure.
func (panicError) Error() string { return "readcache: coalesced computation panicked" }

// storeLocked inserts a computed value, evicting from the LRU tail when
// over the bound. It also keeps the base (predecessor) index current:
// the newest entry for a base key owns the mapping, and an evicted
// entry that still owns its mapping takes it along — stale service
// never outlives the entry it would serve. The caller must hold c.mu.
func (c *Cache) storeLocked(key Key, val any) {
	if el, ok := c.entries[key]; ok {
		// A concurrent writer (same key, different flight epoch) beat
		// us; refresh rather than duplicate.
		e := el.Value.(*entry)
		e.val = val
		e.at = c.now()
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&entry{key: key, val: val, at: c.now()})
	c.entries[key] = el
	c.base[key.base()] = el
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		tk := tail.Value.(*entry).key
		delete(c.entries, tk)
		if c.base[tk.base()] == tail {
			delete(c.base, tk.base())
		}
		c.evictions++
	}
}

// Get returns the cached value for key without computing, for tests and
// introspection. It counts as a hit or miss like Do.
func (c *Cache) Get(key Key) (val any, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*entry).val, true
}

// Purge drops every stored entry without touching the hit/miss
// counters. In-flight computations still complete and release their
// waiters, but their results are not stored: the purge advances a
// generation counter that pre-purge flights fail, so a background
// refresh started before the purge cannot resurrect dropped state.
// Benchmarks use Purge to measure the cold path on a warm process.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.entries = make(map[Key]*list.Element)
	c.base = make(map[Key]*list.Element)
	c.gen++
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:                c.hits,
		Misses:              c.misses,
		Evictions:           c.evictions,
		Coalesced:           c.coalesced,
		StaleServes:         c.staleServes,
		BackgroundRefreshes: c.backgroundRefreshes,
		Entries:             c.ll.Len(),
	}
}
