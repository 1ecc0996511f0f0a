package main

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/inputs"
	"repro/internal/logs"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/stream"
)

// timedIngester stands between the listener and the engine. It stamps each
// IngestBatch entry and return against due times: when the generator was due
// to write each frame, recovered from the records' virtual timestamps. A
// frame's latency runs from its due time to the return of the IngestBatch
// that carries its last record; timing from the due time, not from the
// send, counts the wait a stall imposes on the frames behind it.
//
// It also ends each day: once the engine has a day's last record, it calls
// BeginDay(next) before handing over anything more.
type timedIngester struct {
	eng    *stream.Engine
	in     *soakInput
	start  time.Time
	tr     *tracer
	parent int64

	mu  sync.Mutex
	res *passResult
	day int // the engine's open day
	// Per day: the records the engine accepted, when the engine had the
	// day's last record (BeginDay(next) or Flush was called), and when its
	// close started (BeginDay returned, or Flush was called).
	dayRecords         []int
	dayEnd, closeStart []time.Time
	lastReturn         time.Time
}

func (t *timedIngester) IngestBatch(recs []logs.ProxyRecord) error {
	enter := time.Now()
	first, last := t.in.recordIndex(recs[0]), t.in.recordIndex(recs[len(recs)-1])
	due := func(frame int) time.Time { return t.start.Add(time.Duration(frame) * soakInterval) }
	t.mu.Lock()
	defer t.mu.Unlock()
	var err error
	for rest := recs; len(rest) > 0 && err == nil; {
		// The open day's records, then, once the engine has the day's last
		// one, the rollover.
		n := len(rest)
		more := t.day+1 < len(t.in.days)
		if more {
			n = sort.Search(len(rest), func(i int) bool { return t.in.dayOf(rest[i]) > t.day })
		}
		if err = t.ingest(rest[:n]); err == nil && more &&
			(n < len(rest) || t.in.recordIndex(rest[n-1]) == (t.day+1)*soakDayRecords-1) {
			err = t.rollover()
		}
		rest = rest[n:]
	}
	ret := time.Now()
	id := t.tr.id()
	t.tr.add(id, t.parent, "handoff", "inputs", "", due(last/soakFrameRecords), ret, len(recs))
	r := t.res
	r.handoffLagMs = append(r.handoffLagMs, ms(enter.Sub(due(last/soakFrameRecords))))
	// The frames whose last record is in this batch.
	for f := first / soakFrameRecords; f <= (last+1)/soakFrameRecords-1; f++ {
		r.ingestLatMs = append(r.ingestLatMs, ms(ret.Sub(due(f))))
	}
	r.handoffs++
	t.lastReturn = ret
	return err
}

// ingest hands recs, all of the open day, to the engine.
func (t *timedIngester) ingest(recs []logs.ProxyRecord) error {
	if len(recs) == 0 {
		return nil
	}
	t0 := time.Now()
	err := t.eng.IngestBatch(recs)
	t1 := time.Now()
	t.tr.add(0, t.parent, "IngestBatch", "stream", t.date(t.day), t0, t1, len(recs))
	t.res.callMs = append(t.res.callMs, ms(t1.Sub(t0)))
	t.res.ingest += t1.Sub(t0)
	if err == nil {
		t.dayRecords[t.day] += len(recs)
	}
	return err
}

// rollover ends the open day with BeginDay(next).
func (t *timedIngester) rollover() error {
	t0 := time.Now()
	err := t.eng.BeginDay(t.in.days[t.day+1], nil)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("BeginDay %s: %w", t.date(t.day+1), err)
	}
	t.tr.add(0, t.parent, "BeginDay", "stream", t.date(t.day+1), t0, t1, 0)
	t.res.beginDayMs = append(t.res.beginDayMs, ms(t1.Sub(t0)))
	t.dayEnd[t.day], t.closeStart[t.day] = t0, t1
	t.day++
	return nil
}

func (t *timedIngester) date(day int) string { return t.in.days[day].Format("2006-01-02") }

func (t *timedIngester) Lagging() bool { return t.eng.Lagging() }

// soakLead delays the first frame's due time past the request to the
// sender; soakDrainTimeout bounds the wait for the listener after the
// sender is done.
const (
	soakLead         = 50 * time.Millisecond
	soakDrainTimeout = 60 * time.Second
)

// runSoak has snd send in's frames at soakRate over one TCP connection into
// a newline listener feeding a fresh engine, scraping the engine with
// Snapshot every soakSnapshotEvery beside the feed; the listener's ingester
// rolls the days over. It then flushes the last day and checks that every
// record sent is accounted for, and every day reported.
func runSoak(in *soakInput, snd *sender, shards int, tr *tracer, pass int, baseline uint64) (passResult, error) {
	var res passResult
	var mu sync.Mutex // guards got and res.snapshotMs
	got := make(map[string]published, len(in.days))
	reports := 0
	e := stream.New(stream.Config{
		Shards:       shards,
		TrainingDays: allDaysTrain,
		OnReport: func(rep pipeline.EnterpriseDayReport, _ *report.Daily) {
			p := published{at: time.Now(), summary: summarize(rep)}
			mu.Lock()
			got[rep.Day.Format("2006-01-02")] = p
			reports++
			mu.Unlock()
		},
	}, trainOnly(0))
	defer e.Close()
	if err := e.BeginDay(in.days[0], nil); err != nil {
		return res, err
	}

	rootID := tr.id()
	ti := &timedIngester{eng: e, in: in, tr: tr, parent: rootID, res: &res,
		dayRecords: make([]int, len(in.days)), dayEnd: make([]time.Time, len(in.days)),
		closeStart: make([]time.Time, len(in.days))}
	ln, err := inputs.Listen(ti, "127.0.0.1:0", inputs.Config{Name: "tcp", Framing: inputs.FramingNewline})
	if err != nil {
		return res, err
	}
	defer ln.Close()

	heap := startHeapSampler()
	// The /stats scrape, at the cadence loadgen's admin sampler polls.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(soakSnapshotEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			t0 := time.Now()
			e.Snapshot(soakSnapshotLive)
			t1 := time.Now()
			tr.add(0, rootID, "Snapshot", "stream", "", t0, t1, 0)
			mu.Lock()
			res.snapshotMs = append(res.snapshotMs, ms(t1.Sub(t0)))
			mu.Unlock()
		}
	}()
	start := time.Now().Add(soakLead)
	ti.mu.Lock()
	ti.start = start
	ti.mu.Unlock()
	res.lateMs, err = snd.soak(ln.Addr().String(), start)
	var ls inputs.Stats
	if err == nil {
		res.sent = len(res.lateMs) * soakFrameRecords
		ls, err = drain(ln)
	}
	close(stop)
	wg.Wait()
	if err != nil {
		heap.Stop()
		return res, err
	}
	// The listener is done with the ingester.
	ti.mu.Lock()
	defer ti.mu.Unlock()
	res.dur = ti.lastReturn.Sub(ti.start)
	res.records = int(ls.Records)
	res.shed = int(ls.SheddedRecords)
	res.rejected = int(ls.RejectedRecords)
	res.malformed = int(ls.MalformedFrames)

	// End of the last day: the traced run samples the engine's state, then
	// the day closes.
	lastDay := ti.day
	if tr != nil {
		st, _ := e.Snapshot(soakSnapshotLive)
		res.endOfDay(st)
		res.heapBytesPerDomain = heapPerDomain(e, st, baseline)
	}
	flushAt := time.Now()
	if err := e.Flush(); err != nil {
		heap.Stop()
		return res, fmt.Errorf("Flush: %w", err)
	}
	tr.add(0, rootID, "Flush", "stream", ti.date(lastDay), flushAt, time.Now(), 0)
	ti.dayEnd[lastDay], ti.closeStart[lastDay] = flushAt, flushAt
	peak := heap.Stop()
	res.heapPeak = peak - min(peak, baseline)
	tr.add(rootID, 0, "soak", "bench", strconv.Itoa(pass), ti.start, ti.lastReturn, res.records)

	res.attempted = res.sent + len(in.days)
	mu.Lock()
	if reports != len(in.days) {
		res.fail(1, fmt.Sprintf("%d reports published, want %d", reports, len(in.days)))
	}
	for d := range in.days {
		date := ti.date(d)
		p, ok := got[date]
		if !ok || ti.dayEnd[d].IsZero() {
			res.fail(1, "no report for "+date)
			continue
		}
		res.reportLatMs = append(res.reportLatMs, ms(p.at.Sub(ti.dayEnd[d])))
		res.dayCloseMs = append(res.dayCloseMs, ms(p.at.Sub(ti.closeStart[d])))
		tr.add(0, rootID, "day_close", "pipeline", date, ti.closeStart[d], p.at, p.summary.stats.Records)
		if n := p.summary.stats.Records; n != ti.dayRecords[d] {
			res.fail(1, fmt.Sprintf("%s: report counts %d records, accepted %d", date, n, ti.dayRecords[d]))
		}
	}
	mu.Unlock()
	if lost := res.sent - res.records; lost != 0 {
		res.fail(lost, fmt.Sprintf("sent %d, accepted %d (shed %d, rejected %d, malformed frames %d)",
			res.sent, res.records, res.shed, res.rejected, res.malformed))
	}
	if n := len(res.ingestLatMs); n != len(in.frames) && res.records == res.sent {
		res.fail(1, fmt.Sprintf("timed %d frames, sent %d", n, len(in.frames)))
	}
	if n := res.records + res.shed + res.rejected; n != res.sent {
		res.fail(1, fmt.Sprintf("accepted+shed+rejected = %d, sent %d", n, res.sent))
	}
	if after := e.Stats(); after.TotalRecords != uint64(res.records) {
		res.fail(1, fmt.Sprintf("TotalRecords %d, accepted %d", after.TotalRecords, res.records))
	}
	if err := ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return res, err
	}
	return res, nil
}

// drain waits until the listener has closed its one connection, after
// handing the engine every record it parsed.
func drain(ln *inputs.Listener) (inputs.Stats, error) {
	deadline := time.Now().Add(soakDrainTimeout)
	for {
		ls := ln.Stats()
		if ls.ConnsAccepted == 1 && ls.ConnsActive == 0 {
			return ls, nil
		}
		if time.Now().After(deadline) {
			return ls, fmt.Errorf("listener still busy %v after the sender finished", soakDrainTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}
