package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
)

// TestPreviewDoesNotPerturbDayClose is the live-preview safety anchor:
// hammering Preview from several goroutines throughout ingestion — across
// every rollover, during training, calibration and operation days — must
// leave the day-close reports byte-for-byte identical to the batch
// reference. A preview that mutates any live state (builders, history,
// calibration, models) shows up here as a diff; a preview that deadlocks
// against the close protocol shows up as a timeout.
func TestPreviewDoesNotPerturbDayClose(t *testing.T) {
	fx := newEquivFixture(t, 91)
	want, _ := fx.batchDailies(t)
	if len(want) == 0 {
		t.Fatal("batch produced no processed days")
	}
	days, err := batch.DiscoverEnterprise(fx.dir)
	if err != nil {
		t.Fatal(err)
	}

	e := New(Config{Shards: 4, QueueDepth: 256, TrainingDays: fx.training}, fx.newPipeline())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var previews atomic.Int64
	for _, workers := range []int{1, 4} {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pr, err := e.Preview(workers)
				switch {
				case err == nil:
					previews.Add(1)
					if pr.Date == "" {
						t.Error("successful preview with empty date")
						return
					}
				case errors.Is(err, ErrNoDay):
					// Between Flush and the next BeginDay: fine.
				default:
					t.Errorf("preview: %v", err)
					return
				}
			}
		}(workers)
	}

	for _, d := range days {
		recs, leases, err := batch.LoadProxyDay(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.BeginDay(d.Date, leases); err != nil {
			t.Fatal(err)
		}
		for len(recs) > 0 {
			n := min(97, len(recs))
			if err := e.IngestBatch(recs[:n]); err != nil {
				t.Fatal(err)
			}
			recs = recs[n:]
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if previews.Load() == 0 {
		t.Fatal("no preview ever completed — the test exercised nothing")
	}

	for date, wantJSON := range want {
		got, ok := e.Report(date)
		if !ok {
			t.Errorf("no report for %s", date)
			continue
		}
		if gotJSON := dailyBytes(t, got); !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("day %s: report with concurrent previews differs from batch\nbatch:  %s\nstream: %s",
				date, wantJSON, gotJSON)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPreviewDeterministicAndMatchesClose pins the preview's semantics: on
// a quiescent engine the report is identical for any worker count, and a
// preview taken after the day's final record equals the day-close report
// that rollover then publishes — the preview really is "what a close right
// now would say".
func TestPreviewDeterministicAndMatchesClose(t *testing.T) {
	fx := newEquivFixture(t, 85)
	days, err := batch.DiscoverEnterprise(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Shards: 4, QueueDepth: 256, TrainingDays: fx.training}, fx.newPipeline())
	defer e.Close()

	last := len(days) - 1
	var lastRecords int
	for i, d := range days {
		recs, leases, err := batch.LoadProxyDay(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.BeginDay(d.Date, leases); err != nil {
			t.Fatal(err)
		}
		if err := e.IngestBatch(recs); err != nil {
			t.Fatal(err)
		}
		if i == last {
			lastRecords = len(recs)
		}
	}

	// The engine is quiescent: same frozen state, any fan-out.
	norm := func(pr PreviewReport) []byte {
		pr.GeneratedAt = PreviewReport{}.GeneratedAt
		pr.DurationMillis = 0
		b, err := json.Marshal(pr)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base, err := e.Preview(1)
	if err != nil {
		t.Fatal(err)
	}
	if base.Records != uint64(lastRecords) {
		t.Fatalf("preview froze %d records, day has %d", base.Records, lastRecords)
	}
	if base.Calibrating {
		t.Fatal("final operation day previewed as calibrating")
	}
	baseJSON := norm(base)
	for _, workers := range []int{2, 4, 0} {
		pr, err := e.Preview(workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := norm(pr); !bytes.Equal(got, baseJSON) {
			t.Errorf("preview(workers=%d) differs from preview(workers=1)\n1: %s\n%d: %s",
				workers, baseJSON, workers, got)
		}
	}

	// Stats observability: the engine remembers the last preview, and its
	// duration reads nonzero even when the preview took under a millisecond.
	if st := e.Stats(); st.LastPreviewMicros <= 0 || st.PreviewCandidates != int64(len(base.Report.Domains)) {
		t.Fatalf("stats after preview: %+v, want %d candidates", st, len(base.Report.Domains))
	}

	// A preview over the complete day IS the close: flush and compare bytes.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	date := days[last].Date.Format("2006-01-02")
	closed, ok := e.Report(date)
	if !ok {
		t.Fatalf("no close report for %s", date)
	}
	if closedJSON := dailyBytes(t, closed); !bytes.Equal(dailyBytes(t, base.Report), closedJSON) {
		t.Errorf("full-day preview differs from the day-close report\npreview: %s\nclose:   %s",
			dailyBytes(t, base.Report), closedJSON)
	}
}

// TestPreviewErrors: no open day and a closed engine are clean refusals.
func TestPreviewErrors(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 2})
	if _, err := e.Preview(0); !errors.Is(err, ErrNoDay) {
		t.Fatalf("got %v, want ErrNoDay", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Preview(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestPreviewMergeHoldsCommitAtGate pins the ordering that lets a merge
// hold the history's read lock for a worker's whole share (see
// profile.History): while a preview is in its merge, a day-close commit
// waits at the commit gate, not at the history's lock, so history readers
// such as the shards' SeenDomain keep running.
func TestPreviewMergeHoldsCommitAtGate(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 2})
	defer e.Close()
	closeMerged, releaseClose := make(chan struct{}), make(chan struct{})
	e.closeHook = func(date string) {
		if date != "2014-02-03" {
			return
		}
		close(closeMerged)
		<-releaseClose
	}
	previewParked, releasePreview := make(chan struct{}), make(chan struct{})
	e.previewHook = func() {
		close(previewParked)
		<-releasePreview
	}

	d1, d2 := testDay(), testDay().AddDate(0, 0, 1)
	if err := e.BeginDay(d1, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := e.IngestProxy(rec(d1, fmt.Sprintf("h%d", i%3), fmt.Sprintf("d%d.test", i%4), time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.BeginDay(d2, nil); err != nil {
		t.Fatal(err)
	}
	<-closeMerged // day 1's close has merged and is parked before its pipeline
	e.mu.Lock()
	c := e.closing
	e.mu.Unlock()
	if err := e.IngestProxy(rec(d2, "h1", "beta.test", time.Minute)); err != nil {
		t.Fatal(err)
	}
	epoch := e.hist.Epoch()

	type previewResult struct {
		records uint64
		err     error
	}
	previewDone := make(chan previewResult, 1)
	go func() {
		_, records, _, err := e.previewDay(0)
		previewDone <- previewResult{records, err}
	}()
	<-previewParked // the preview holds the commit gate's read side
	close(releaseClose)

	deadline := time.Now().Add(5 * time.Second)
	for {
		e.mu.Lock()
		committing := c.phase == closeCommitting
		e.mu.Unlock()
		if committing {
			break
		}
		if time.Now().After(deadline) {
			close(releasePreview)
			t.Fatal("the close never reached its commit tail")
		}
		time.Sleep(time.Millisecond)
	}
	// Give the close time to get past the gate if it could.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-c.done:
		t.Fatal("the close finished while a preview held the commit gate")
	default:
	}
	if e.hist.Epoch() != epoch {
		t.Fatal("the close committed to the history while a preview held the commit gate")
	}
	read := make(chan bool, 1)
	go func() { read <- e.hist.SeenDomain("d0.test") }()
	select {
	case seen := <-read:
		if seen {
			t.Fatal("day 1's domains are in the history before its commit")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a history read blocked while the close waited: it is waiting at the history's lock")
	}

	// The preview now merges under the gate while the commit waits at it.
	close(releasePreview)
	res := <-previewDone
	if res.err != nil || res.records != 1 {
		t.Fatalf("preview = %d records, %v; want 1 record", res.records, res.err)
	}
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		t.Fatal("the close did not commit after the preview released the gate")
	}
	if e.hist.Epoch() == epoch || !e.hist.SeenDomain("d0.test") {
		t.Fatal("day 1 was not committed to the history")
	}
}
