package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/stream"
)

// passResult is what one pass measured and checked. A closed-loop pass
// feeds every day of its workload to a fresh engine; a soak pass runs one
// open-loop soak against a fresh engine.
type passResult struct {
	records int
	// dur is the time the records took: first decode to last report in a
	// closed loop (less the traced run's end-of-day heap sample); the
	// first frame's due time to the last IngestBatch return in a soak.
	dur time.Duration
	// Per day.
	reportLatMs, beginDayMs, dayCloseMs []float64
	// Per IngestBatch call: from the batch's due time to the call's return
	// (in a closed loop a batch is due when the call is made), and the
	// call alone.
	ingestLatMs, callMs []float64
	decode, ingest      time.Duration
	// Soak only: the listener's hand-offs and what it dropped, and how
	// late the generator wrote each frame.
	handoffs, sent, shed, rejected, malformed int
	handoffLagMs, lateMs                      []float64

	snapshotMs                    []float64
	checkpointMs, checkpointBytes []float64
	// Engine state at the end of the last day.
	histHits, histMiss         uint64
	residentDomains, livePairs int
	heapPeak                   uint64
	heapBytesPerDomain         float64

	attempted, failed int
	failures          []string
}

func (r *passResult) fail(n int, msg string) {
	r.failed += n
	r.failures = append(r.failures, msg)
}

// endOfDay records the engine state a Snapshot reports.
func (r *passResult) endOfDay(st stream.Stats) {
	for _, s := range st.Shards {
		r.histHits += s.HistCacheHits
		r.histMiss += s.HistCacheMisses
		r.livePairs += s.LivePairs
	}
	r.residentDomains = st.ResidentBuilderDomains
}

// heapPerDomain collects garbage and divides the heap above baseline by the
// domains the engine holds: the History plus the open day's builder state.
func heapPerDomain(e *stream.Engine, st stream.Stats, baseline uint64) float64 {
	n := e.Pipeline().History().DomainCount() + st.ResidentBuilderDomains
	if n == 0 {
		return 0
	}
	return (float64(heapBaseline()) - float64(baseline)) / float64(n)
}

// Per-layer metrics, in printed order. Every traced run reports all of
// them; one a workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"logs.decode_ns_per_rec", "ns"},
	{"logs.decode_allocs_per_rec", "count"},
	{"inputs.handoff_lag_ms_p50", "ms"},
	{"inputs.handoff_lag_ms_p99", "ms"},
	{"inputs.records_per_handoff", "count"},
	{"generator.late_ms_p99", "ms"},
	{"stream.ingest_ns_per_rec", "ns"},
	{"stream.ingest_call_ms_p99", "ms"},
	{"stream.snapshot_ms_p50", "ms"},
	{"stream.snapshot_ms_max", "ms"},
	{"stream.begin_day_ms_p50", "ms"},
	{"stream.day_close_ms_p50", "ms"},
	{"stream.checkpoint_ms_p50", "ms"},
	{"stream.checkpoint_bytes", "bytes"},
	{"stream.hist_cache_hit_ratio", "ratio"},
	{"stream.resident_domains", "count"},
	{"stream.live_pairs", "count"},
	{"stream.heap_bytes_per_domain", "bytes"},
	{"pipeline.train_ms_p50", "ms"},
	{"pipeline.process_ms_p50", "ms"},
	{"trace.overhead_pct", "%"},
	{"ingest_latency_ms_p99", "ms"},
	{"gomaxprocs1.records_per_s", "rec/s"},
	{"gomaxprocs1.decode_ns_per_rec", "ns"},
	{"gomaxprocs1.ingest_ns_per_rec", "ns"},
	{"gomaxprocs1.day_close_ms_p50", "ms"},
}

func (b *bench) setLayer(name string, v float64) {
	for _, m := range layerMetrics {
		if m.name == name {
			b.layer.set(name, v, m.unit)
			return
		}
	}
	panic("perfbench: unregistered per-layer metric " + name)
}

const mib = 1 << 20

// runClosed runs a closed-loop workload: passes over its days, each on a
// fresh engine, until the time budget is spent.
func (b *bench) runClosed() error {
	seed := b.meta.Seed
	if b.traced {
		b.tr = newTracer()
	}
	in, err := timedSetup(b, func(input *arena) (*closedInput, error) {
		if b.meta.Workload == "enterprise-replay" {
			return setupEnterpriseReplay(seed, input, b.tr)
		}
		return setupDGAFlood(seed, input)
	})
	if err != nil {
		return err
	}
	budget := b.budget
	single := b.traced && b.meta.Workload == "enterprise-replay"
	if single {
		budget = budget * 2 / 3 // the rest goes to the GOMAXPROCS=1 repeat
	}
	shards := runtime.GOMAXPROCS(0)
	plain, traced, err := b.passes(budget, b.tr, true, func(tr *tracer, pass int) (passResult, error) {
		return runClosedPass(in, shards, 0, tr, pass, heapBaseline())
	})
	if err != nil {
		return err
	}
	b.setEndToEnd(plain)
	if !b.traced {
		return nil
	}
	b.setLayers(plain, traced)
	// Decode time comes from the passes; the allocation count needs a
	// process where nothing else allocates.
	_, allocs, err := decodeAlone(in.days[0].chunks, nil)
	if err != nil {
		return err
	}
	b.setLayer("logs.decode_allocs_per_rec", allocs)
	b.setLayer("pipeline.train_ms_p50", median(in.trainMs))
	b.setLayer("pipeline.process_ms_p50", median(in.processMs))
	if !single {
		return nil
	}
	// The single-threaded baseline: one core, one shard, a sequential day
	// close, every pass traced.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	b.tr1 = newTracer()
	_, one, err := b.passes(b.budget-budget, b.tr1, false, func(tr *tracer, pass int) (passResult, error) {
		return runClosedPass(in, 1, 1, tr, pass, heapBaseline())
	})
	if err != nil {
		return err
	}
	s := sum(one)
	b.setLayer("gomaxprocs1.records_per_s", median(passRates(one)))
	b.setLayer("gomaxprocs1.decode_ns_per_rec", perRecord(s.decode, s.records))
	b.setLayer("gomaxprocs1.ingest_ns_per_rec", perRecord(s.ingest, s.records))
	b.setLayer("gomaxprocs1.day_close_ms_p50", median(s.dayCloseMs))
	return nil
}

// runLiveSoak runs open-loop soaks, each a day on a fresh engine, until the
// time budget is spent.
func (b *bench) runLiveSoak() error {
	in, err := timedSetup(b, func(input *arena) (*soakInput, error) { return setupLiveSoak(b.meta.Seed, input) })
	if err != nil {
		return err
	}
	if b.traced {
		b.tr = newTracer()
	}
	snd, err := startSender(b.meta.Seed)
	if err != nil {
		return err
	}
	shards := runtime.GOMAXPROCS(0)
	plain, traced, err := b.passes(b.budget, b.tr, true, func(tr *tracer, pass int) (passResult, error) {
		return runSoak(in, snd, shards, tr, pass, heapBaseline())
	})
	if err != nil {
		snd.kill()
		return err
	}
	if err := snd.stop(); err != nil {
		return fmt.Errorf("sender: %w", err)
	}
	b.setEndToEnd(plain)
	if !b.traced {
		return nil
	}
	b.setLayers(plain, traced)
	// The listener decodes each frame inside the inputs layer, where the
	// benchmark cannot time it; decode the same frames here instead.
	ns, allocs, err := decodeAlone(in.frames, b.tr)
	if err != nil {
		return err
	}
	b.setLayer("logs.decode_ns_per_rec", ns)
	b.setLayer("logs.decode_allocs_per_rec", allocs)
	return nil
}

// passes runs passes until budget is spent, and at least one of each kind
// asked for. With alternate set, every other pass is traced (when tr is
// set); otherwise every pass is.
func (b *bench) passes(budget time.Duration, tr *tracer, alternate bool, run func(tr *tracer, pass int) (passResult, error)) (plain, traced []passResult, err error) {
	start := time.Now()
	for pass := 0; ; pass++ {
		needPlain := alternate && len(plain) == 0
		needTraced := tr != nil && len(traced) == 0
		if time.Since(start) >= budget && !needPlain && !needTraced {
			return plain, traced, nil
		}
		var ptr *tracer
		if tr != nil && (!alternate || pass%2 == 1) {
			ptr = tr
		}
		r, err := run(ptr, pass)
		if err != nil {
			return nil, nil, err
		}
		b.check(r.attempted, r.failed, r.failures)
		if ptr != nil {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
}

// setEndToEnd sets the end-to-end metrics from the untraced passes. A rate
// or a peak is one per pass, and the median over passes is reported; the
// latency percentiles pool every pass's samples.
func (b *bench) setEndToEnd(plain []passResult) {
	s := sum(plain)
	var heap []float64
	for _, p := range plain {
		heap = append(heap, float64(p.heapPeak)/mib)
	}
	b.e2e.set("records_per_s", median(passRates(plain)), "rec/s")
	b.e2e.set("report_latency_ms_p50", quantile(s.reportLatMs, 0.5), "ms")
	b.e2e.set("report_latency_ms_p80", quantile(s.reportLatMs, 0.8), "ms")
	b.e2e.set("ingest_latency_ms_p50", quantile(s.ingestLatMs, 0.5), "ms")
	// The tail is printed but not an end-to-end metric: on a two-processor
	// virtual machine its median moved by more than the largest bound
	// between two sets of runs of the same code. The traced run reports it
	// as a per-layer metric, which has no bound.
	if !b.traced {
		b.info.set("ingest_latency_ms_p99", quantile(s.ingestLatMs, 0.99), "ms")
	}
	b.e2e.set("heap_peak_mb", median(heap), "MB")
}

// setLayers sets every per-layer metric the traced passes measure, and the
// tracing overhead against the untraced passes; the rest read 0.
func (b *bench) setLayers(plain, traced []passResult) {
	for _, m := range layerMetrics {
		b.layer.set(m.name, 0, m.unit)
	}
	s := sum(traced)
	last := traced[len(traced)-1]
	var perDomain []float64
	for _, p := range traced {
		perDomain = append(perDomain, p.heapBytesPerDomain)
	}
	if s.decode > 0 {
		b.setLayer("logs.decode_ns_per_rec", perRecord(s.decode, s.records))
	}
	if s.handoffs > 0 {
		b.setLayer("inputs.handoff_lag_ms_p50", quantile(s.handoffLagMs, 0.5))
		b.setLayer("inputs.handoff_lag_ms_p99", quantile(s.handoffLagMs, 0.99))
		b.setLayer("inputs.records_per_handoff", float64(s.records)/float64(s.handoffs))
		// Any of these above 0 fails the run's checks, so they are printed
		// with the metrics but are not metrics themselves.
		b.info.set("inputs.shed_records", float64(s.shed), "count")
		b.info.set("inputs.rejected_records", float64(s.rejected), "count")
		b.info.set("inputs.malformed_frames", float64(s.malformed), "count")
		b.setLayer("generator.late_ms_p99", quantile(s.lateMs, 0.99))
	}
	b.setLayer("stream.ingest_ns_per_rec", perRecord(s.ingest, s.records))
	b.setLayer("stream.ingest_call_ms_p99", quantile(s.callMs, 0.99))
	b.setLayer("stream.snapshot_ms_p50", median(s.snapshotMs))
	b.setLayer("stream.snapshot_ms_max", maxOf(s.snapshotMs))
	b.setLayer("stream.begin_day_ms_p50", median(s.beginDayMs))
	b.setLayer("stream.day_close_ms_p50", median(s.dayCloseMs))
	b.setLayer("stream.checkpoint_ms_p50", median(s.checkpointMs))
	b.setLayer("stream.checkpoint_bytes", median(s.checkpointBytes))
	if s.histHits+s.histMiss > 0 {
		b.setLayer("stream.hist_cache_hit_ratio", float64(s.histHits)/float64(s.histHits+s.histMiss))
	}
	b.setLayer("stream.resident_domains", float64(last.residentDomains))
	b.setLayer("stream.live_pairs", float64(last.livePairs))
	b.setLayer("stream.heap_bytes_per_domain", median(perDomain))
	// From the untraced passes, as the end-to-end metrics are.
	b.setLayer("ingest_latency_ms_p99", quantile(sum(plain).ingestLatMs, 0.99))
	if untraced := median(passRates(plain)); untraced > 0 {
		b.setLayer("trace.overhead_pct", (untraced-median(passRates(traced)))/untraced*100)
	}
}

// sum pools the samples and adds up the counts of several passes.
func sum(ps []passResult) passResult {
	var s passResult
	for _, p := range ps {
		s.records += p.records
		s.reportLatMs = append(s.reportLatMs, p.reportLatMs...)
		s.beginDayMs = append(s.beginDayMs, p.beginDayMs...)
		s.dayCloseMs = append(s.dayCloseMs, p.dayCloseMs...)
		s.ingestLatMs = append(s.ingestLatMs, p.ingestLatMs...)
		s.callMs = append(s.callMs, p.callMs...)
		s.decode += p.decode
		s.ingest += p.ingest
		s.handoffs += p.handoffs
		s.shed += p.shed
		s.rejected += p.rejected
		s.malformed += p.malformed
		s.handoffLagMs = append(s.handoffLagMs, p.handoffLagMs...)
		s.lateMs = append(s.lateMs, p.lateMs...)
		s.snapshotMs = append(s.snapshotMs, p.snapshotMs...)
		s.checkpointMs = append(s.checkpointMs, p.checkpointMs...)
		s.checkpointBytes = append(s.checkpointBytes, p.checkpointBytes...)
		s.histHits += p.histHits
		s.histMiss += p.histMiss
	}
	return s
}

func passRates(ps []passResult) []float64 {
	out := make([]float64, 0, len(ps))
	for _, p := range ps {
		out = append(out, float64(p.records)/p.dur.Seconds())
	}
	return out
}

func perRecord(d time.Duration, records int) float64 {
	if records == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(records)
}
