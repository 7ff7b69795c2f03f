package heavyhitters_test

// All() early-termination coverage: breaking out of the iter.Seq after
// the first yield — on every backend flavor — must not leak detached
// scratch or corrupt a subsequent TopAppend. The buffered backends
// detach their scratch while user code runs (so a nested query cannot
// clobber the iteration) and must re-attach it on early exit; these
// tests pin that contract, including under concurrent updates on the
// sharded backend.

import (
	"sync"
	"testing"

	hh "repro"
	"repro/internal/stream"
)

// iterBackends enumerates one summary per backend flavor: unit
// (streaming and buffered), weighted, sketch, sharded, windowed,
// decayed, and the concurrency tier over several of them.
func iterBackends() map[string]hh.Summary[uint64] {
	return map[string]hh.Summary[uint64]{
		"unit-spacesaving":   hh.New[uint64](hh.WithCapacity(64)),
		"unit-frequent":      hh.New[uint64](hh.WithAlgorithm(hh.AlgoFrequent), hh.WithCapacity(64)),
		"unit-lossycounting": hh.New[uint64](hh.WithAlgorithm(hh.AlgoLossyCounting), hh.WithCapacity(64)),
		"weighted":           hh.New[uint64](hh.WithWeighted(), hh.WithCapacity(64)),
		"sketch":             hh.New[uint64](hh.WithAlgorithm(hh.AlgoCountMin), hh.WithCapacity(64)),
		"sharded":            hh.New[uint64](hh.WithCapacity(64), hh.WithShards(4)),
		"window":             hh.New[uint64](hh.WithCapacity(64), hh.WithWindow(2048), hh.WithEpochs(4)),
		"decay":              hh.New[uint64](hh.WithCapacity(64), hh.WithDecay(0.0001)),
		"concurrent":         hh.New[uint64](hh.WithCapacity(64), hh.WithConcurrent()),
		"concurrent-sharded": hh.New[uint64](hh.WithCapacity(64), hh.WithConcurrent(), hh.WithShards(4)),
		"concurrent-window": hh.New[uint64](hh.WithCapacity(64), hh.WithConcurrent(),
			hh.WithWindow(2048), hh.WithEpochs(4)),
	}
}

// TestAllEarlyTermination breaks after the first yield, then asserts
// the summary still answers full, ordered, duplicate-free queries.
func TestAllEarlyTermination(t *testing.T) {
	str := stream.Zipf(500, 1.1, 20000, stream.OrderRandom, 31)
	for name, s := range iterBackends() {
		t.Run(name, func(t *testing.T) {
			s.UpdateBatch(str)
			want := s.TopAppend(nil, 10)
			if len(want) != 10 {
				t.Fatalf("top-10 before iteration returned %d entries", len(want))
			}
			for range 3 {
				seen := 0
				for e := range s.All() {
					if e.Count < 0 {
						t.Fatal("negative count yielded")
					}
					seen++
					break // early termination: the contract under test
				}
				if seen != 1 {
					t.Fatalf("broke after first yield but saw %d", seen)
				}
				// A reused-buffer TopAppend right after the abandoned
				// iteration must reproduce the pre-iteration answer.
				got := s.TopAppend(want[:0:cap(want)], 10)
				if len(got) != 10 {
					t.Fatalf("top-10 after early break returned %d entries", len(got))
				}
				for i := 1; i < len(got); i++ {
					if got[i].Count > got[i-1].Count {
						t.Fatalf("top order corrupted at %d: %v", i, got)
					}
				}
				dup := make(map[uint64]bool, len(got))
				for _, e := range got {
					if dup[e.Item] {
						t.Fatalf("duplicate item %d after early break", e.Item)
					}
					dup[e.Item] = true
				}
			}
			// A nested query inside the abandoned iteration must not
			// clobber it either.
			for e := range s.All() {
				if s.Estimate(e.Item) < 0 {
					t.Fatal("nested estimate negative")
				}
				s.TopAppend(nil, 5)
				break
			}
			if got := s.TopAppend(nil, 10); len(got) != 10 {
				t.Fatalf("top-10 after nested-query break returned %d entries", len(got))
			}
		})
	}
}

// TestAllEarlyTerminationShardedRace is the -race variant: concurrent
// Update traffic on the sharded backend, locked and behind the
// concurrency tier, while the iterator is abandoned mid-flight,
// repeatedly.
func TestAllEarlyTerminationShardedRace(t *testing.T) {
	for name, s := range map[string]hh.Summary[uint64]{
		"sharded":            hh.New[uint64](hh.WithCapacity(64), hh.WithShards(8)),
		"concurrent-sharded": concurrentSharded[uint64](8, 64),
	} {
		t.Run(name, func(t *testing.T) { abandonIterationsUnderWrites(t, s) })
	}
}

func abandonIterationsUnderWrites(t *testing.T, s hh.Summary[uint64]) {
	str := stream.Zipf(500, 1.1, 20000, stream.OrderRandom, 37)
	s.UpdateBatch(str)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
					s.Update(i % 997)
					i++
				}
			}
		}(uint64(g) * 1_000_003)
	}
	var buf []hh.WeightedEntry[uint64]
	for i := 0; i < 200; i++ {
		for range s.All() {
			break
		}
		buf = s.TopAppend(buf[:0], 10)
		if len(buf) != 10 {
			t.Fatalf("top-10 under concurrent updates returned %d entries", len(buf))
		}
	}
	close(stop)
	wg.Wait()
}
