package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/ccdetect"
	"repro/internal/features"
	"repro/internal/gen"
	"repro/internal/inputs"
	"repro/internal/loadgen"
	"repro/internal/logs"
	"repro/internal/normalize"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/stream"
	"repro/internal/whois"
)

// perfSnapshot is the BENCH_PR*.json schema: one comparable point on the
// perf trajectory per CI run. Rates are records (or visits) per second;
// durations are milliseconds, medians of perfRounds runs.
type perfSnapshot struct {
	GOMAXPROCS int   `json:"gomaxprocs"`
	Seed       int64 `json:"seed"`

	// Day-close analytics (snapshot build + periodicity profiling +
	// feature extraction) over one generated operation day.
	DayCloseVisits       int     `json:"dayCloseVisits"`
	DayCloseSequentialMs float64 `json:"dayCloseSequentialMs"` // Workers=1
	DayCloseParallelMs   float64 `json:"dayCloseParallelMs"`   // Workers=GOMAXPROCS
	DayCloseSpeedup      float64 `json:"dayCloseSpeedup"`

	// The same analytics from per-shard incremental partials (the
	// streaming rollover path): snapshot stage = merge + classification
	// instead of a full re-reduce of the day's visits.
	DayCloseIncrementalSequentialMs float64 `json:"dayCloseIncrementalSequentialMs"`
	DayCloseIncrementalParallelMs   float64 `json:"dayCloseIncrementalParallelMs"`
	// DayCloseIncrementalSpeedup compares incremental vs batch at equal
	// worker counts (sequential/sequential).
	DayCloseIncrementalSpeedup float64 `json:"dayCloseIncrementalSpeedup"`

	// Full streaming day cycle (batched ingest + pipeline rollover),
	// day-closes serialized by per-day Flush vs overlapped with next-day
	// ingest via BeginDay swap-and-continue.
	IngestDays              int     `json:"ingestDays"`
	IngestRecordsPerDay     int     `json:"ingestRecordsPerDay"`
	IngestToReportSerialRps float64 `json:"ingestToReportSerialRecS"`
	IngestToReportPipelined float64 `json:"ingestToReportPipelinedRecS"`

	// The same pipelined cycle fed the way the daemon is fed: each day
	// encoded to proxy TSV and decoded back before the batched ingest —
	// through the zero-copy batch reader vs the retained naive parser. The
	// delta is the decode win in its end-to-end context.
	IngestToReportPipelinedTSV      float64 `json:"ingestToReportPipelinedTSVRecS"`
	IngestToReportPipelinedTSVNaive float64 `json:"ingestToReportPipelinedTSVNaiveRecS"`

	// The rollover ingest-stall (exclusive-lock hold during the buffer
	// swap) vs the background pipeline duration it used to contain.
	RolloverPauseMicros int64 `json:"rolloverPauseMicros"`
	DayCloseMicros      int64 `json:"dayCloseMicros"`

	// The decode path in isolation over one encoded day fragment with
	// realistic value cardinality: the zero-copy batch reader (warm
	// decoder, pooled buffer) vs the retained Split/time.Parse reference,
	// plus the append encoder that replaced fmt.Fprintf. Allocs/record is
	// the steady-state amortized number for the fast path.
	DecodeRecords          int     `json:"decodeRecords"`
	DecodeBytes            int     `json:"decodeBytes"`
	DecodeNaiveRecS        float64 `json:"decodeNaiveRecS"`
	DecodeNaiveMBPerS      float64 `json:"decodeNaiveMBPerS"`
	DecodeFastRecS         float64 `json:"decodeFastRecS"`
	DecodeFastMBPerS       float64 `json:"decodeFastMBPerS"`
	DecodeSpeedup          float64 `json:"decodeSpeedup"`
	DecodeFastAllocsPerRec float64 `json:"decodeFastAllocsPerRecord"`
	EncodeAppendMBPerS     float64 `json:"encodeAppendMBPerS"`

	// Checkpoint encode and restore over one high-volume open day (format
	// v2: domain-keyed builder frames, size proportional to distinct
	// (host, domain) state; restore re-partitions instead of replaying
	// per-record work). BENCH_PR5–PR10 also record the retired v1 writer.
	CheckpointRecords     int     `json:"checkpointRecords"`
	CheckpointV2Bytes     int64   `json:"checkpointV2Bytes"`
	CheckpointV2EncodeMs  float64 `json:"checkpointV2EncodeMs"`
	CheckpointV2RestoreMs float64 `json:"checkpointV2RestoreMs"`

	// Apply-path metrics: the single-shard batched fold (ingest routed,
	// grouped into domain runs, folded, shard queue drained inside the
	// timed region) and the shard-local history-membership cache — hit
	// rate measured across a committed day boundary, where every scattered
	// domain run re-checks membership and all checks after a domain's
	// first are answerable from the epoch-stamped cache.
	ApplyRecords         int     `json:"applyRecords"`
	ApplySingleShardRecS float64 `json:"applySingleShardRecS"`
	HistCacheHits        uint64  `json:"histCacheHits"`
	HistCacheMisses      uint64  `json:"histCacheMisses"`
	HistCacheHitRate     float64 `json:"histCacheHitRate"`

	// A short in-process soak through the live TCP listener: the loadgen
	// traffic model paced at SoakTargetRecS into an internal/inputs
	// listener feeding the engine. Latency is per framed batch write;
	// drops must be zero at this rate (the snapshot records them so a
	// regression is visible, not fatal).
	SoakSeconds        float64 `json:"soakSeconds"`
	SoakTargetRecS     float64 `json:"soakTargetRecS"`
	SoakAchievedRecS   float64 `json:"soakAchievedRecS"`
	SoakRecords        int64   `json:"soakRecords"`
	SoakDroppedRecords int64   `json:"soakDroppedRecords"`
	SoakP50Micros      int64   `json:"soakP50Micros"`
	SoakP95Micros      int64   `json:"soakP95Micros"`
	SoakP99Micros      int64   `json:"soakP99Micros"`
	SoakHeapPeakBytes  uint64  `json:"soakHeapPeakBytes"`
}

const perfRounds = 3

func medianMs(runs []time.Duration) float64 {
	sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
	return float64(runs[len(runs)/2].Microseconds()) / 1000
}

// runPerf measures the PR 3 concurrency surfaces and writes the snapshot.
func runPerf(path string, seed int64) error {
	snap := perfSnapshot{GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed}

	if err := perfDayClose(&snap, seed); err != nil {
		return err
	}
	if err := perfIngestToReport(&snap); err != nil {
		return err
	}
	if err := perfDecode(&snap); err != nil {
		return err
	}
	if err := perfApply(&snap); err != nil {
		return err
	}
	if err := perfCheckpoint(&snap); err != nil {
		return err
	}
	if err := perfSoak(&snap); err != nil {
		return err
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("perf snapshot written to %s\n%s", path, data)
	return nil
}

// perfDayClose times the pure analytics of one rollover at Workers=1 vs
// Workers=GOMAXPROCS over identical inputs (no history commit, so every
// round replays the same work).
func perfDayClose(snap *perfSnapshot, seed int64) error {
	g := gen.NewEnterprise(gen.EnterpriseConfig{
		Seed: seed, TrainingDays: 5, OperationDays: 1,
		Hosts: 300, PopularDomains: 150, NewRarePerDay: 80,
		BenignAutoPerDay: 10, Campaigns: 4,
	})
	reg := whois.NewRegistry()
	gen.PopulateWHOIS(reg, g.Truth, g.RareRegistrations(), g.DayTime(g.NumDays()))
	hist := profile.NewHistory()
	for d := 0; d < g.Config().TrainingDays; d++ {
		visits, _ := normalize.ReduceProxy(g.Day(d), g.DHCPMap(d))
		profile.NewSnapshot(g.DayTime(d), visits, hist, 10).Commit(hist)
	}
	opDay := g.Config().TrainingDays
	day := g.DayTime(opDay)
	visits, _ := normalize.ReduceProxy(g.Day(opDay), g.DHCPMap(opDay))
	det := ccdetect.NewDetector(&features.Extractor{Hist: hist, Whois: reg})
	snap.DayCloseVisits = len(visits)

	measure := func(workers int) float64 {
		var runs []time.Duration
		for r := 0; r < perfRounds; r++ {
			start := time.Now()
			s := profile.NewSnapshotParallel(day, visits, hist, 10, workers)
			ads := det.FindAutomatedParallel(s, workers)
			det.FillFeaturesParallel(ads, day, workers)
			runs = append(runs, time.Since(start))
		}
		return medianMs(runs)
	}
	snap.DayCloseSequentialMs = measure(1)
	snap.DayCloseParallelMs = measure(0)
	if snap.DayCloseParallelMs > 0 {
		snap.DayCloseSpeedup = snap.DayCloseSequentialMs / snap.DayCloseParallelMs
	}

	// The incremental rollover path: per-shard partials maintained during
	// ingest (untimed — that cost rides the ingest hot path), merged +
	// classified at close. The partials are rebuilt for every round:
	// reusing one set would hand later rounds pre-sorted rare timestamps
	// and understate the merge.
	const shards = 4
	buildParts := func() []*profile.IncrementalBuilder {
		parts := make([]*profile.IncrementalBuilder, shards)
		for i := range parts {
			parts[i] = profile.NewIncrementalBuilder()
		}
		for i := range visits {
			v := &visits[i]
			parts[profile.PairPartition(v.Host, v.Domain, shards)].Add(uint64(i), v)
		}
		return parts
	}
	measureInc := func(workers int) float64 {
		var runs []time.Duration
		for r := 0; r < perfRounds; r++ {
			parts := buildParts()
			start := time.Now()
			s := profile.MergeSnapshotParallel(day, parts, hist, 10, workers)
			ads := det.FindAutomatedParallel(s, workers)
			det.FillFeaturesParallel(ads, day, workers)
			runs = append(runs, time.Since(start))
		}
		return medianMs(runs)
	}
	snap.DayCloseIncrementalSequentialMs = measureInc(1)
	snap.DayCloseIncrementalParallelMs = measureInc(0)
	if snap.DayCloseIncrementalSequentialMs > 0 {
		snap.DayCloseIncrementalSpeedup = snap.DayCloseSequentialMs / snap.DayCloseIncrementalSequentialMs
	}
	return nil
}

// perfIngestToReport drives the streaming engine through several full days
// twice: with day-closes serialized by per-day Flush, and with the
// swap-and-continue overlap (BeginDay rollovers, one final Flush). The
// total work is identical; the difference is the overlap the non-blocking
// rollover buys.
// perfRecords builds n records over a bounded (host, domain) working set —
// the same shape the stream benchmarks use, with valid addresses so the
// records survive a TSV encode/decode round trip.
func perfRecords(n int, base time.Time, step time.Duration) []logs.ProxyRecord {
	recs := make([]logs.ProxyRecord, n)
	for i := range recs {
		recs[i] = logs.ProxyRecord{
			Time:      base.Add(time.Duration(i) * step),
			Host:      fmt.Sprintf("host-%03d", i%64),
			SrcIP:     netip.AddrFrom4([4]byte{10, 1, byte(i % 64), 7}),
			Domain:    fmt.Sprintf("dom-%03d.example.net", i%61),
			DestIP:    netip.AddrFrom4([4]byte{198, 51, 100, byte(i % 61)}),
			URL:       "http://example.net/index.html",
			Method:    "GET",
			Status:    200,
			UserAgent: "bench-agent/1.0",
		}
	}
	return recs
}

// Decode modes for the pipelined ingest cycle.
const (
	decodeNone  = iota // ingest the in-memory records directly
	decodeFast         // encode to TSV, decode via the zero-copy batch reader
	decodeNaive        // encode to TSV, decode via the retained naive parser
)

func perfIngestToReport(snap *perfSnapshot) error {
	// 10 days per round: the first day on a fresh engine pays every cold
	// cost (pool growth, intern tables, histogram state) — enough days
	// amortize it so the figure tracks the steady state the stream
	// benchmarks measure.
	const days, perDay, batchSize = 10, 20000, 512
	snap.IngestDays = days
	snap.IngestRecordsPerDay = perDay
	base := time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC)
	recs := perfRecords(perDay, base, 0)

	newEngine := func() *stream.Engine {
		pipe := pipeline.NewEnterprise(pipeline.EnterpriseConfig{}, whois.NewRegistry(), nil, nil)
		return stream.New(stream.Config{Shards: 4, QueueDepth: 8192, TrainingDays: 1 << 30}, pipe)
	}
	dec := logs.GetProxyDecoder()
	defer logs.PutProxyDecoder(dec)
	buf := logs.GetProxyBuf(perDay)
	defer func() { logs.PutProxyBuf(buf) }()
	var tsv []byte
	runCycle := func(pipelined bool, decode int) (float64, error) {
		var best float64
		for r := 0; r < perfRounds; r++ {
			e := newEngine()
			start := time.Now()
			for d := 0; d < days; d++ {
				dayT := base.AddDate(0, 0, d)
				if err := e.BeginDay(dayT, nil); err != nil {
					return 0, err
				}
				for i := range recs {
					recs[i].Time = dayT.Add(time.Duration(i) * 4 * time.Millisecond)
				}
				day := recs
				if decode != decodeNone {
					tsv = tsv[:0]
					for _, rec := range recs {
						tsv = logs.AppendProxy(tsv, rec)
					}
					var err error
					if decode == decodeFast {
						buf, err = logs.ReadProxyBatch(bytes.NewReader(tsv), dec, buf[:0])
					} else {
						buf, err = decodeProxyNaive(tsv, buf[:0])
					}
					if err != nil {
						return 0, err
					}
					day = buf
				}
				for i := 0; i < len(day); i += batchSize {
					end := i + batchSize
					if end > len(day) {
						end = len(day)
					}
					if err := e.IngestBatch(day[i:end]); err != nil {
						return 0, err
					}
				}
				if !pipelined {
					if err := e.Flush(); err != nil {
						return 0, err
					}
				}
			}
			if err := e.Flush(); err != nil {
				return 0, err
			}
			rps := float64(days*perDay) / time.Since(start).Seconds()
			if rps > best {
				best = rps
			}
			if pipelined && decode == decodeNone {
				st := e.Stats()
				snap.RolloverPauseMicros = st.LastRolloverPauseMicros
				snap.DayCloseMicros = st.LastDayCloseMicros
			}
			if err := e.Close(); err != nil {
				return 0, err
			}
		}
		return best, nil
	}

	var err error
	if snap.IngestToReportSerialRps, err = runCycle(false, decodeNone); err != nil {
		return err
	}
	if snap.IngestToReportPipelined, err = runCycle(true, decodeNone); err != nil {
		return err
	}
	if snap.IngestToReportPipelinedTSV, err = runCycle(true, decodeFast); err != nil {
		return err
	}
	if snap.IngestToReportPipelinedTSVNaive, err = runCycle(true, decodeNaive); err != nil {
		return err
	}
	return nil
}

// decodeProxyNaive is the pre-PR decode loop: bufio.Scanner framing plus
// the retained naive reference parser.
func decodeProxyNaive(tsv []byte, recs []logs.ProxyRecord) ([]logs.ProxyRecord, error) {
	sc := bufio.NewScanner(bytes.NewReader(tsv))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		rec, err := logs.ParseProxyNaive(sc.Text())
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// perfDecode prices the decode path in isolation: the zero-copy batch
// reader with a warm decoder vs the naive reference over one encoded day
// fragment, plus the append encoder's throughput and the fast path's
// steady-state allocation rate.
func perfDecode(snap *perfSnapshot) error {
	const n = 8192
	base := time.Date(2014, 2, 13, 9, 0, 0, 0, time.UTC)
	recs := perfRecords(n, base, 1500*time.Millisecond)
	var data []byte
	for _, r := range recs {
		data = logs.AppendProxy(data, r)
	}
	snap.DecodeRecords = n
	snap.DecodeBytes = len(data)
	mb := float64(len(data)) / (1 << 20)

	// Append-encoder throughput.
	{
		var best float64
		dst := make([]byte, 0, len(data))
		for r := 0; r < perfRounds; r++ {
			start := time.Now()
			dst = dst[:0]
			for i := range recs {
				dst = logs.AppendProxy(dst, recs[i])
			}
			if rate := mb / time.Since(start).Seconds(); rate > best {
				best = rate
			}
		}
		snap.EncodeAppendMBPerS = best
	}

	// Naive reference decode.
	{
		var best time.Duration
		buf := make([]logs.ProxyRecord, 0, n)
		for r := 0; r < perfRounds; r++ {
			start := time.Now()
			var err error
			if buf, err = decodeProxyNaive(data, buf[:0]); err != nil {
				return err
			}
			if len(buf) != n {
				return fmt.Errorf("naive decode: %d records, want %d", len(buf), n)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		snap.DecodeNaiveRecS = float64(n) / best.Seconds()
		snap.DecodeNaiveMBPerS = mb / best.Seconds()
	}

	// Zero-copy decode: warm decoder, pooled buffer, plus the amortized
	// allocation rate in the steady state (measured over whole rounds so
	// one-off growth — a new intern entry, a grown framing buffer — is
	// amortized the way it is in production).
	{
		dec := logs.GetProxyDecoder()
		defer logs.PutProxyDecoder(dec)
		buf := logs.GetProxyBuf(n)
		defer func() { logs.PutProxyBuf(buf) }()
		var err error
		if buf, err = logs.ReadProxyBatch(bytes.NewReader(data), dec, buf[:0]); err != nil {
			return err // warm-up round: populate intern and address caches
		}
		var best time.Duration
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		const rounds = 8
		for r := 0; r < rounds; r++ {
			start := time.Now()
			if buf, err = logs.ReadProxyBatch(bytes.NewReader(data), dec, buf[:0]); err != nil {
				return err
			}
			if len(buf) != n {
				return fmt.Errorf("fast decode: %d records, want %d", len(buf), n)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		runtime.ReadMemStats(&ms1)
		snap.DecodeFastRecS = float64(n) / best.Seconds()
		snap.DecodeFastMBPerS = mb / best.Seconds()
		snap.DecodeFastAllocsPerRec = float64(ms1.Mallocs-ms0.Mallocs) / (rounds * n)
	}
	if snap.DecodeNaiveRecS > 0 {
		snap.DecodeSpeedup = snap.DecodeFastRecS / snap.DecodeNaiveRecS
	}
	return nil
}

// perfApply prices the shard-side batched fold on one shard: warm-day
// IngestBatch rounds with the shard queue drained inside the timed region
// (Stats quiesces), so the number is the apply path's share of the ingest
// budget rather than queue-depth pipelining. It then measures the
// history-membership cache across a day commit: day two trains a
// scattered 61-domain working set into the history, day three re-visits
// it — every domain run re-checks membership, and all checks after a
// domain's first must be cache hits.
func perfApply(snap *perfSnapshot) error {
	const perDay, batchSize = 20000, 512
	base := time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC)
	recs := perfRecords(perDay, base, 4*time.Millisecond)
	pipe := pipeline.NewEnterprise(pipeline.EnterpriseConfig{}, whois.NewRegistry(), nil, nil)
	e := stream.New(stream.Config{Shards: 1, QueueDepth: 8192, TrainingDays: 1 << 30}, pipe)
	defer e.Close()
	snap.ApplyRecords = perDay

	ingest := func(day []logs.ProxyRecord) error {
		for i := 0; i < len(day); i += batchSize {
			if err := e.IngestBatch(day[i:min(i+batchSize, len(day))]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := e.BeginDay(base, nil); err != nil {
		return err
	}
	if err := ingest(recs); err != nil { // warm: live states, builder, pools
		return err
	}
	_ = e.Stats()
	var best float64
	for r := 0; r < perfRounds; r++ {
		start := time.Now()
		if err := ingest(recs); err != nil {
			return err
		}
		_ = e.Stats() // quiesce: the shard fold lands inside the timing
		if rate := float64(perDay) / time.Since(start).Seconds(); rate > best {
			best = rate
		}
	}
	snap.ApplySingleShardRecS = best

	// Scattered working set: consecutive records on distinct second-level
	// domains, so folding leaves single-record runs and every run performs
	// its own membership check.
	scat := perfRecords(perDay, base, 4*time.Millisecond)
	for i := range scat {
		scat[i].Domain = fmt.Sprintf("scat-%02d.net", i%61)
	}
	for d := 1; d <= 2; d++ {
		dayT := base.AddDate(0, 0, d)
		if err := e.BeginDay(dayT, nil); err != nil { // commits the prior day
			return err
		}
		for i := range scat {
			scat[i].Time = dayT.Add(time.Duration(i) * 4 * time.Millisecond)
		}
		if err := ingest(scat); err != nil {
			return err
		}
		if err := e.Flush(); err != nil {
			return err
		}
	}
	for _, ss := range e.Stats().Shards {
		snap.HistCacheHits += ss.HistCacheHits
		snap.HistCacheMisses += ss.HistCacheMisses
	}
	if total := snap.HistCacheHits + snap.HistCacheMisses; total > 0 {
		snap.HistCacheHitRate = float64(snap.HistCacheHits) / float64(total)
	}
	return nil
}

// perfCheckpoint prices checkpoint encode and restore over a high-volume
// open day (many records over a bounded working set of (host, domain)
// pairs — the shape where the domain-keyed v2 encoding wins).
func perfCheckpoint(snap *perfSnapshot) error {
	const perDay = 40000
	snap.CheckpointRecords = perDay
	base := time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC)
	recs := make([]logs.ProxyRecord, perDay)
	for i := range recs {
		recs[i] = logs.ProxyRecord{
			Time:      base.Add(time.Duration(i) * 2 * time.Millisecond),
			Host:      fmt.Sprintf("host-%03d", i%64),
			Domain:    fmt.Sprintf("dom-%03d.example.net", i%61),
			URL:       "http://example.net/index.html",
			Method:    "GET",
			Status:    200,
			UserAgent: "bench-agent/1.0",
		}
	}
	pipe := pipeline.NewEnterprise(pipeline.EnterpriseConfig{}, whois.NewRegistry(), nil, nil)
	e := stream.New(stream.Config{Shards: 4, QueueDepth: 8192, TrainingDays: 1 << 30}, pipe)
	defer e.Close()
	if err := e.BeginDay(base, nil); err != nil {
		return err
	}
	for i := 0; i < perDay; i += 512 {
		end := min(i+512, perDay)
		if err := e.IngestBatch(recs[i:end]); err != nil {
			return err
		}
	}

	var buf bytes.Buffer
	var encRuns, resRuns []time.Duration
	for r := 0; r < perfRounds; r++ {
		buf.Reset()
		start := time.Now()
		if err := e.Checkpoint(&buf); err != nil {
			return err
		}
		encRuns = append(encRuns, time.Since(start))

		start = time.Now()
		restored, err := stream.Restore(bytes.NewReader(buf.Bytes()),
			stream.Config{Shards: 4, QueueDepth: 8192}, stream.RestoreDeps{})
		if err != nil {
			return err
		}
		_ = restored.Stats() // quiesce: include any queued restore work
		resRuns = append(resRuns, time.Since(start))
		if err := restored.Close(); err != nil {
			return err
		}
	}
	snap.CheckpointV2Bytes = int64(buf.Len())
	snap.CheckpointV2EncodeMs = medianMs(encRuns)
	snap.CheckpointV2RestoreMs = medianMs(resRuns)
	return nil
}

// perfSoak runs the heavy-traffic harness end to end in-process: loadgen's
// traffic model paced over a real TCP connection into a live framed
// listener feeding the engine. One round, not a median — a soak's variance
// is itself part of what the percentiles report.
func perfSoak(snap *perfSnapshot) error {
	const (
		soakRate     = 25000.0
		soakDuration = 3 * time.Second
	)
	pipe := pipeline.NewEnterprise(pipeline.EnterpriseConfig{}, whois.NewRegistry(), nil, nil)
	e := stream.New(stream.Config{Shards: 4, QueueDepth: 8192, TrainingDays: 1 << 30}, pipe)
	defer e.Close()
	l, err := inputs.Listen(e, "127.0.0.1:0", inputs.Config{Name: "soak", Framing: inputs.FramingNewline})
	if err != nil {
		return err
	}
	defer l.Close()
	m := loadgen.NewModel(loadgen.ModelConfig{Seed: snap.Seed})
	if err := e.BeginDay(m.Day(), nil); err != nil {
		return err
	}
	res, err := loadgen.Run(loadgen.DriverConfig{
		Mode: "tcp", Addr: l.Addr().String(), Framing: inputs.FramingNewline,
		Rate: soakRate, Duration: soakDuration, Batch: 512,
	}, m)
	if err != nil {
		return err
	}
	// Let the listener drain the tail so the drop counters are final.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := l.Stats()
		if st.Records+st.SheddedRecords+st.RejectedRecords >= res.SentRecords {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := l.Stats()
	snap.SoakSeconds = soakDuration.Seconds()
	snap.SoakTargetRecS = res.TargetRecS
	snap.SoakAchievedRecS = res.AchievedRecS
	snap.SoakRecords = res.SentRecords
	snap.SoakDroppedRecords = st.SheddedRecords + st.RejectedRecords
	snap.SoakP50Micros = res.P50Micros
	snap.SoakP95Micros = res.P95Micros
	snap.SoakP99Micros = res.P99Micros
	snap.SoakHeapPeakBytes = res.HeapPeakBytes
	return nil
}
