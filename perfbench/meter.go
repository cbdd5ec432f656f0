package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is the process cost of one measured window.
type usage struct {
	cpu        time.Duration
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
	heapPeak   uint64
}

// meter measures process CPU, allocations, collections and peak HeapInuse
// over a window. A sampler goroutine reads HeapInuse every 100 ms while the
// window is open.
type meter struct {
	start    time.Time
	cpu0     time.Duration
	ms0      runtime.MemStats
	mu       sync.Mutex
	heapPeak uint64
	stop     chan struct{}
	wg       sync.WaitGroup
}

// startMeter opens a window.
func startMeter() *meter {
	m := &meter{stop: make(chan struct{})}
	runtime.ReadMemStats(&m.ms0)
	m.heapPeak = m.ms0.HeapInuse
	m.cpu0 = cpuTime()
	m.start = time.Now()
	m.wg.Add(1)
	go m.sample()
	return m
}

func (m *meter) sample() {
	defer m.wg.Done()
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	var ms runtime.MemStats
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			runtime.ReadMemStats(&ms)
			m.observe(ms.HeapInuse)
		}
	}
}

func (m *meter) observe(heap uint64) {
	m.mu.Lock()
	if heap > m.heapPeak {
		m.heapPeak = heap
	}
	m.mu.Unlock()
}

// finish closes the window and returns its cost.
func (m *meter) finish() usage {
	wall := time.Since(m.start)
	cpu := cpuTime() - m.cpu0
	close(m.stop)
	m.wg.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.observe(ms.HeapInuse)
	return usage{
		cpu:        cpu,
		wall:       wall,
		mallocs:    ms.Mallocs - m.ms0.Mallocs,
		allocBytes: ms.TotalAlloc - m.ms0.TotalAlloc,
		gcs:        ms.NumGC - m.ms0.NumGC,
		heapPeak:   m.heapPeak,
	}
}
