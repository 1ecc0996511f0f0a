package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// liveHeapMetric is the heap the last GC cycle marked live: what the
// program holds, independent of when the collector happens to run.
const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []rtmetrics.Sample{{Name: liveHeapMetric}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// heapBaseline collects garbage and returns the live heap left: the
// benchmark's own inputs plus whatever earlier passes still hold.
func heapBaseline() uint64 {
	// Two cycles: the first only moves sync.Pool contents to the victim
	// cache, and a pooled buffer can keep a finished pass's engine
	// reachable until the second.
	runtime.GC()
	runtime.GC()
	return liveHeap()
}

// heapSampler polls the live heap until stopped and keeps the peak.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

// heapSampleEvery is finer than the time between GC cycles on every
// workload, so every cycle's live heap is seen.
const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: liveHeap()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				h.peak = max(h.peak, liveHeap())
				return
			case <-t.C:
				h.peak = max(h.peak, liveHeap())
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak heap in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}
