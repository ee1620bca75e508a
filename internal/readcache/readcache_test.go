package readcache

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func k(id string, stamp uint64) Key {
	return Key{Kind: "test", ID: id, Stamp: stamp}
}

func TestDoMemoizes(t *testing.T) {
	c := New(8)
	computes := 0
	get := func() (any, bool, error) {
		return c.Do(k("a", 1), func() (any, error) {
			computes++
			return "value", nil
		})
	}
	v, hit, err := get()
	if err != nil || hit || v != "value" {
		t.Fatalf("first Do: v=%v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = get()
	if err != nil || !hit || v != "value" {
		t.Fatalf("second Do: v=%v hit=%v err=%v", v, hit, err)
	}
	if computes != 1 {
		t.Fatalf("computed %d times", computes)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStampChangeMisses(t *testing.T) {
	c := New(8)
	computes := 0
	for _, stamp := range []uint64{1, 2} {
		_, hit, err := c.Do(k("a", stamp), func() (any, error) {
			computes++
			return stamp, nil
		})
		if err != nil || hit {
			t.Fatalf("stamp %d: hit=%v err=%v", stamp, hit, err)
		}
	}
	if computes != 2 {
		t.Fatalf("computed %d times, want one per stamp", computes)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(8)
	boom := errors.New("boom")
	if _, _, err := c.Do(k("a", 1), func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("error was cached: %d entries", c.Len())
	}
	v, hit, err := c.Do(k("a", 1), func() (any, error) { return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("recompute after error: v=%v hit=%v err=%v", v, hit, err)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("e%d", i)
		c.Do(k(id, 1), func() (any, error) { return id, nil })
	}
	// Touch e0 so e1 becomes the LRU tail.
	if _, ok := c.Get(k("e0", 1)); !ok {
		t.Fatal("e0 missing")
	}
	c.Do(k("e3", 1), func() (any, error) { return "e3", nil })
	if _, ok := c.Get(k("e1", 1)); ok {
		t.Fatal("e1 survived eviction; LRU order wrong")
	}
	for _, id := range []string{"e0", "e2", "e3"} {
		if _, ok := c.Get(k(id, 1)); !ok {
			t.Fatalf("%s evicted, want it kept", id)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCoalescing proves the singleflight contract under -race: N
// concurrent lookups of one key run exactly one compute, every caller
// receives its result, and the joiners are counted as coalesced. The
// compute function blocks until every other goroutine has joined its
// flight, so the overlap is guaranteed, not scheduling luck.
func TestCoalescing(t *testing.T) {
	c := New(8)
	const n = 16
	var computes atomic.Int64
	started := make(chan struct{}) // closed when compute is running

	results := make([]any, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = c.Do(k("shared", 7), func() (any, error) {
				computes.Add(1)
				close(started)
				// Hold the flight open until every other caller has joined
				// it. Coalesced counts a join as it happens, under the
				// cache lock; a caller that had merely started could still
				// arrive after the flight and read the stored entry.
				for deadline := time.Now().Add(10 * time.Second); c.Stats().Coalesced < n-1 && time.Now().Before(deadline); {
					time.Sleep(100 * time.Microsecond)
				}
				return "shared-result", nil
			})
		}(i)
	}
	<-started
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computes, want exactly 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || results[i] != "shared-result" {
			t.Fatalf("caller %d: v=%v err=%v", i, results[i], errs[i])
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses %d, want 1", st.Misses)
	}
	if st.Coalesced != n-1 {
		t.Fatalf("coalesced %d, want %d", st.Coalesced, n-1)
	}
}

func TestCoalescedPanicReleased(t *testing.T) {
	c := New(8)
	leaderIn := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		// Joiner: must be released with an error, not deadlock.
		<-leaderIn
		_, _, err := c.Do(k("p", 1), func() (any, error) { return "joiner", nil })
		done <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic swallowed")
			}
		}()
		c.Do(k("p", 1), func() (any, error) {
			close(leaderIn)
			// Hold the flight open until the joiner has coalesced onto
			// it, so the panic provably tears down a shared flight.
			for i := 0; c.Stats().Coalesced == 0 && i < 5000; i++ {
				time.Sleep(time.Millisecond)
			}
			panic("kaboom")
		})
	}()
	if err := <-done; err == nil {
		t.Fatal("joiner got nil error from panicked flight")
	} else if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("joiner error %q does not name the panic", err)
	}
	// The key is not poisoned: a later Do recomputes cleanly.
	v, _, err := c.Do(k("p", 1), func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("recompute after panic: v=%v err=%v", v, err)
	}
}

func TestDefaultCapacity(t *testing.T) {
	c := New(0)
	for i := uint64(0); i < DefaultMaxEntries+10; i++ {
		c.Do(k("d", i), func() (any, error) { return i, nil })
	}
	if c.Len() != DefaultMaxEntries {
		t.Fatalf("Len = %d, want default cap %d", c.Len(), DefaultMaxEntries)
	}
}

func TestPurge(t *testing.T) {
	c := New(8)
	c.Do(k("a", 1), func() (any, error) { return 1, nil })
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("%d entries after purge", c.Len())
	}
	_, hit, _ := c.Do(k("a", 1), func() (any, error) { return 2, nil })
	if hit {
		t.Fatal("hit after purge")
	}
}
