package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// workerCounts are the pool sizes every behavioural property is
// checked under: serial, a small fixed fan-out, and the machine size.
func workerCounts() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

func TestRunCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, w := range workerCounts() {
		p := New(w)
		for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
			hits := make([]int32, n)
			p.Run(n, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d executed %d times", w, n, i, h)
				}
			}
		}
		p.Close()
	}
}

func TestRunZeroAndOneItem(t *testing.T) {
	p := New(4)
	defer p.Close()
	ran := false
	p.Run(0, func(i int) { ran = true })
	if ran {
		t.Fatal("Run(0) invoked fn")
	}
	count := 0
	p.Run(1, func(i int) {
		if i != 0 {
			t.Fatalf("Run(1) got index %d", i)
		}
		count++
	})
	if count != 1 {
		t.Fatalf("Run(1) invoked fn %d times", count)
	}
}

func TestWorkersExceedItems(t *testing.T) {
	// n smaller than the worker count must still cover every index
	// once, with surplus workers left parked.
	p := New(runtime.GOMAXPROCS(0) + 7)
	defer p.Close()
	const n = 3
	hits := make([]int32, n)
	p.Run(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times", i, h)
		}
	}
}

func TestRunChunksPartitionRange(t *testing.T) {
	for _, w := range workerCounts() {
		p := New(w)
		for _, chunk := range []int{0, 1, 3, 100} {
			const n = 257
			var covered [n]int32
			p.RunChunks(n, chunk, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad chunk [%d,%d)", lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
				}
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("workers=%d chunk=%d: index %d covered %d times", w, chunk, i, c)
				}
			}
		}
		p.Close()
	}
}

func TestPanicPropagation(t *testing.T) {
	pools := map[string]*Pool{"serial": Serial(), "bounded": New(4)}
	for name, p := range pools {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: panic did not propagate", name)
				}
				pv, ok := r.(*Panic)
				if !ok {
					t.Fatalf("%s: recovered %T, want *Panic", name, r)
				}
				if pv.Value != "boom 7" {
					t.Fatalf("%s: panic value %v", name, pv.Value)
				}
				if len(pv.Stack) == 0 {
					t.Fatalf("%s: no worker stack captured", name)
				}
				if pv.Error() == "" || pv.String() == "" {
					t.Fatalf("%s: empty panic rendering", name)
				}
			}()
			p.Run(64, func(i int) {
				if i == 7 {
					panic("boom 7")
				}
			})
		}()
		p.Close()
	}
}

func TestPanicAbortsRemainingChunks(t *testing.T) {
	// After the first panic the pool stops claiming chunks; with
	// per-item chunks on a serial pool the abort point is exact.
	p := Serial()
	defer p.Close()
	var ran int32
	func() {
		defer func() { recover() }()
		p.RunChunks(100, 1, func(lo, hi int) {
			atomic.AddInt32(&ran, 1)
			if lo == 5 {
				panic("stop")
			}
		})
	}()
	if ran != 6 {
		t.Fatalf("serial pool ran %d chunks after panic at 5, want 6", ran)
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	// The contract: with results written to pre-sized slots, the
	// output is bitwise identical for every worker count. The work
	// mixes float accumulation per slot (order-sensitive if chunking
	// leaked across slots) to make schedule bugs visible.
	const n = 4096
	ref := computeSlots(Serial(), n)
	for _, w := range workerCounts() {
		p := New(w)
		for rep := 0; rep < 3; rep++ {
			got := computeSlots(p, n)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("workers=%d rep=%d: slot %d = %v, want %v", w, rep, i, got[i], ref[i])
				}
			}
		}
		p.Close()
	}
}

func computeSlots(p *Pool, n int) []float64 {
	return Map(p, n, func(i int) float64 {
		s := 0.0
		for k := 1; k <= 50; k++ {
			s += 1.0 / float64(i*50+k)
		}
		return s
	})
}

func TestNestedRunDoesNotDeadlock(t *testing.T) {
	p := New(2)
	defer p.Close()
	var total atomic.Int64
	p.Run(8, func(i int) {
		p.Run(8, func(j int) {
			total.Add(1)
		})
	})
	if total.Load() != 64 {
		t.Fatalf("nested runs executed %d inner items, want 64", total.Load())
	}
}

func TestPoolReuseAcrossJobs(t *testing.T) {
	// Helpers persist between jobs: after a warm-up job the goroutine
	// count must not grow linearly with the number of Run calls.
	p := New(4)
	defer p.Close()
	p.Run(128, func(i int) {})
	before := runtime.NumGoroutine()
	for r := 0; r < 50; r++ {
		p.Run(128, func(i int) {})
	}
	after := runtime.NumGoroutine()
	if after > before+4 {
		t.Fatalf("goroutines grew from %d to %d over 50 reused jobs", before, after)
	}
}

func TestWorkersAccessorAndSizing(t *testing.T) {
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0).Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(-3).Workers() = %d", got)
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("New(5).Workers() = %d", got)
	}
	if got := Serial().Workers(); got != 1 {
		t.Fatalf("Serial().Workers() = %d, want 1", got)
	}
}

func TestDefaultPoolAndResize(t *testing.T) {
	d := Default()
	if d == nil || d.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Default() = %v", d)
	}
	if Default() != d {
		t.Fatal("Default() not a singleton")
	}
	SetDefaultWorkers(2)
	if got := Default().Workers(); got != 2 {
		t.Fatalf("after SetDefaultWorkers(2), Workers() = %d", got)
	}
	// The pre-swap handle keeps working for in-flight holders.
	sum := 0
	Serial().Run(3, func(i int) { sum += i })
	if sum != 3 {
		t.Fatalf("serial run after swap computed %d", sum)
	}
	SetDefaultWorkers(0)
	if got := Default().Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("after SetDefaultWorkers(0), Workers() = %d", got)
	}
}

func TestMapTypesAndOrder(t *testing.T) {
	p := New(4)
	defer p.Close()
	got := Map(p, 10, func(i int) string {
		return string(rune('a' + i))
	})
	want := "abcdefghij"
	for i, s := range got {
		if s != string(want[i]) {
			t.Fatalf("Map slot %d = %q", i, s)
		}
	}
	if empty := Map(p, 0, func(i int) int { return i }); len(empty) != 0 {
		t.Fatalf("Map over 0 items returned %v", empty)
	}
}
