package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/logs"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/stream"
)

// published is one OnReport observation.
type published struct {
	at      time.Time
	summary daySummary
	daily   *report.Daily
}

// runClosedPass feeds every day of in through a fresh engine, timing each
// call, and checks the outputs. With a tracer it records a span around
// every call and samples the post-GC heap at the end of the last day.
func runClosedPass(in *closedInput, shards, workers int, tr *tracer, pass int, baseline uint64) (passResult, error) {
	var res passResult
	var mu sync.Mutex
	got := make(map[string]published, len(in.days))
	// rolled carries OnReport's "day completed" pulses to the checkpoint
	// goroutine; one slot coalesces pulses while a checkpoint runs, as the
	// daemon's rollover checkpoints do.
	rolled := make(chan string, 1)
	cfg := stream.Config{
		Shards:       shards,
		TrainingDays: in.training,
		OnReport: func(rep pipeline.EnterpriseDayReport, daily *report.Daily) {
			p := published{at: time.Now(), summary: summarize(rep), daily: daily}
			date := rep.Day.Format("2006-01-02")
			mu.Lock()
			got[date] = p
			mu.Unlock()
			if in.checkpoint {
				select {
				case rolled <- date:
				default:
				}
			}
		},
	}
	e := stream.New(cfg, in.newPipeline(workers))
	defer e.Close()

	passID := tr.id()
	var ckptWG sync.WaitGroup
	var ckptErr error
	if in.checkpoint {
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			var buf bytes.Buffer
			for date := range rolled {
				buf.Reset()
				start := time.Now()
				err := e.Checkpoint(&buf)
				end := time.Now()
				if err != nil {
					ckptErr = err
					continue
				}
				tr.add(0, passID, "Checkpoint", "stream", date, start, end, 0)
				res.checkpointMs = append(res.checkpointMs, ms(end.Sub(start)))
				res.checkpointBytes = append(res.checkpointBytes, float64(buf.Len()))
			}
		}()
	}

	dec := logs.GetProxyDecoder()
	defer logs.PutProxyDecoder(dec)
	buf := logs.GetProxyBuf(in.chunk)
	defer func() { logs.PutProxyBuf(buf) }()

	dayEnd := make([]time.Time, len(in.days))     // the engine has the day's last record
	closeStart := make([]time.Time, len(in.days)) // BeginDay(next) returned, or Flush was called
	dayIDs := make([]int64, len(in.days))
	var paused time.Duration // the traced run's end-of-day sample
	heap := startHeapSampler()
	start := time.Now()
	for i := range in.days {
		day := &in.days[i]
		date := day.date.Format("2006-01-02")
		dayIDs[i] = tr.id()
		dayStart := time.Now()
		t0 := dayStart
		if err := e.BeginDay(day.date, day.leases); err != nil {
			return res, fmt.Errorf("BeginDay %s: %w", date, err)
		}
		t1 := time.Now()
		tr.add(0, dayIDs[i], "BeginDay", "stream", date, t0, t1, 0)
		if i > 0 {
			dayEnd[i-1], closeStart[i-1] = t0, t1
			res.beginDayMs = append(res.beginDayMs, ms(t1.Sub(t0)))
		}
		for c, chunk := range day.chunks {
			shared := date + "/" + strconv.Itoa(c)
			t0 := time.Now()
			var err error
			buf, err = logs.ReadProxyBatch(bytes.NewReader(chunk), dec, buf[:0])
			if err != nil {
				return res, fmt.Errorf("decode %s: %w", shared, err)
			}
			t1 := time.Now()
			if err := e.IngestBatch(buf); err != nil {
				return res, fmt.Errorf("IngestBatch %s: %w", shared, err)
			}
			t2 := time.Now()
			tr.add(0, dayIDs[i], "ReadProxyBatch", "logs", shared, t0, t1, len(buf))
			tr.add(0, dayIDs[i], "IngestBatch", "stream", shared, t1, t2, len(buf))
			res.decode += t1.Sub(t0)
			res.ingest += t2.Sub(t1)
			// In a closed loop a batch is due when the call is made.
			res.ingestLatMs = append(res.ingestLatMs, ms(t2.Sub(t1)))
		}
		res.records += day.records
		tr.add(dayIDs[i], passID, "day", "bench", date, dayStart, time.Now(), day.records)
		last := i == len(in.days)-1
		if last && tr != nil {
			// The traced run samples the engine's end-of-day state: a
			// Snapshot, as the /stats scrape makes, and the post-GC heap.
			// The pass's clock excludes both.
			t0 := time.Now()
			st, _ := e.Snapshot(soakSnapshotLive)
			t1 := time.Now()
			tr.add(0, passID, "Snapshot", "stream", date, t0, t1, 0)
			res.snapshotMs = append(res.snapshotMs, ms(t1.Sub(t0)))
			res.endOfDay(st)
			res.heapBytesPerDomain = heapPerDomain(e, st, baseline)
			paused = time.Since(t0)
		}
		if !last {
			continue // BeginDay(next) ends the day
		}
		dayEnd[i] = time.Now()
		closeStart[i] = dayEnd[i]
		if err := e.Flush(); err != nil {
			return res, fmt.Errorf("Flush %s: %w", date, err)
		}
		tr.add(0, passID, "Flush", "stream", date, closeStart[i], time.Now(), 0)
	}
	// Every OnReport has run once Flush returns; no more pulses follow.
	close(rolled)
	ckptWG.Wait()
	peak := heap.Stop()
	res.heapPeak = peak - min(peak, baseline)
	if ckptErr != nil {
		return res, fmt.Errorf("Checkpoint: %w", ckptErr)
	}

	if st := e.Stats(); st.TotalRecords != uint64(res.records) {
		res.fail(res.records-int(min(st.TotalRecords, uint64(res.records))),
			fmt.Sprintf("TotalRecords %d, fed %d", st.TotalRecords, res.records))
	}
	mu.Lock()
	defer mu.Unlock()
	var last time.Time
	for i := range in.days {
		day := &in.days[i]
		date := day.date.Format("2006-01-02")
		res.attempted++
		p, ok := got[date]
		if !ok {
			res.fail(1, "no report for "+date)
			continue
		}
		if p.at.After(last) {
			last = p.at
		}
		res.reportLatMs = append(res.reportLatMs, ms(p.at.Sub(dayEnd[i])))
		res.dayCloseMs = append(res.dayCloseMs, ms(p.at.Sub(closeStart[i])))
		tr.add(0, dayIDs[i], "day_close", "pipeline", date, closeStart[i], p.at, day.records)
		if msg := checkDay(day, p, tr, passID); msg != "" {
			res.fail(1, date+": "+msg)
		}
	}
	res.attempted += res.records
	res.callMs = res.ingestLatMs
	res.dur = last.Sub(start) - paused
	tr.add(passID, 0, "pass", "bench", strconv.Itoa(pass), start, last, res.records)
	return res, nil
}

// checkDay compares a published day with the workload's reference, or,
// where it has none, with the records fed.
func checkDay(day *dayInput, p published, tr *tracer, parent int64) string {
	if p.summary.stats.Records != day.records {
		return fmt.Sprintf("report counts %d records, fed %d", p.summary.stats.Records, day.records)
	}
	switch {
	case day.refDaily != nil:
		if p.daily == nil {
			return "no SOC report for an operation day"
		}
		var buf bytes.Buffer
		start := time.Now()
		if err := p.daily.WriteJSON(&buf); err != nil {
			return err.Error()
		}
		tr.add(0, parent, "WriteJSON", "report", p.daily.Date, start, time.Now(), 0)
		if !bytes.Equal(buf.Bytes(), day.refDaily) {
			return "SOC report differs from the batch reference"
		}
	case day.refTrain != nil:
		if p.summary != *day.refTrain {
			return fmt.Sprintf("training day summary %+v, reference %+v", p.summary, *day.refTrain)
		}
	}
	return ""
}

// decodeAlone decodes every chunk once more with a warm decoder, on an
// otherwise idle process, under a span each, and returns the nanoseconds
// and heap allocations per record.
func decodeAlone(chunks [][]byte, tr *tracer) (nsPerRec, allocsPerRec float64, err error) {
	dec := logs.GetProxyDecoder()
	defer logs.PutProxyDecoder(dec)
	var buf []logs.ProxyRecord
	defer func() { logs.PutProxyBuf(buf) }()
	if buf, err = logs.ReadProxyBatch(bytes.NewReader(chunks[0]), dec, buf); err != nil {
		return 0, 0, err // warm the decoder's intern tables
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var total time.Duration
	n := 0
	for _, c := range chunks {
		t0 := time.Now()
		if buf, err = logs.ReadProxyBatch(bytes.NewReader(c), dec, buf[:0]); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		tr.add(0, 0, "ReadProxyBatch", "logs", "", t0, t1, len(buf))
		total += t1.Sub(t0)
		n += len(buf)
	}
	runtime.ReadMemStats(&after)
	return perRecord(total, n), float64(after.Mallocs-before.Mallocs) / float64(n), nil
}
