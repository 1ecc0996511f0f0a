package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/histogram"
	"repro/internal/logs"
	"repro/internal/pipeline"
	"repro/internal/report"
)

// TestLivePairRecordsMatchJSON: the append-based marker-domain and
// live-pair lines are exactly what json.Encoder writes for
// checkpointDomain and checkpointLivePair — escaping, zoned and
// nanosecond times, float hubs in both notations, omitted empty fields —
// and fail where encoding/json fails.
func TestLivePairRecordsMatchJSON(t *testing.T) {
	day := testDay()
	states := []histogram.OnlineState{
		{Last: day},
		{Last: day.Add(123456789).In(time.FixedZone("ist", 5*3600+1800)),
			Bins:  []histogram.Bin{{Hub: 15, Count: 3}, {Hub: 1e-7, Count: 1}, {Hub: 2.5e21, Count: 2}, {Hub: 0.1, Count: 1}},
			Total: 7, Conns: 8, OutOfOrder: 2},
		{Last: day.Add(time.Hour), Bins: []histogram.Bin{{Hub: 59.999999, Count: 1}}, Total: 1, Conns: 2},
		{Last: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		{Last: day, Bins: []histogram.Bin{{Hub: math.NaN(), Count: 1}}, Total: 1, Conns: 2},
		{Last: day, Bins: []histogram.Bin{{Hub: math.Inf(1), Count: 1}}, Total: 1, Conns: 2},
	}
	names := []string{"host-1", "<&>\"\\\x00\n\xff\u2028.test"}
	for _, name := range names {
		want, err := json.Marshal(checkpointDomain{D: name})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendMarkerDomain(nil, name); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("marker %q: got %s, encoding/json %s", name, got, want)
		}
		for i, st := range states {
			lp := checkpointLivePair{Host: name, Domain: name + ".test", State: st}
			got, gotErr := appendLivePair(nil, &lp)
			want, wantErr := json.Marshal(lp)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("state %d: error %v, encoding/json error %v", i, gotErr, wantErr)
			}
			if gotErr == nil && !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("state %d: got %s, encoding/json %s", i, got, want)
			}
		}
	}
}

// parkingWriter collects a checkpoint and parks the writing goroutine on
// the first Write that carries marker, until release is closed.
type parkingWriter struct {
	buf     bytes.Buffer
	marker  []byte
	parked  chan struct{}
	release chan struct{}
	didPark bool
}

func (w *parkingWriter) Write(p []byte) (int, error) {
	from := max(0, w.buf.Len()-len(w.marker))
	w.buf.Write(p)
	if !w.didPark && bytes.Contains(w.buf.Bytes()[from:], w.marker) {
		w.didPark = true
		close(w.parked)
		<-w.release
	}
	return len(p), nil
}

// TestCheckpointOpenDayEncodeReleasesCommitGate: a checkpoint holds the
// commit gate only while it writes the sections a commit can change. With
// its writer parked once the open-day section starts, a rollover's close
// must still commit and publish its report; the checkpoint, once released,
// must restore — onto a different shard count — into an engine that
// finishes the dataset byte-identical to batch.
func TestCheckpointOpenDayEncodeReleasesCommitGate(t *testing.T) {
	fx := newEquivFixture(t, 91)
	want, _ := fx.batchDailies(t)
	if len(want) == 0 {
		t.Fatal("batch produced no processed days")
	}
	days, err := batch.DiscoverEnterprise(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	ckptDay := len(days) - 3 // a post-calibration operation day
	ckptDate := days[ckptDay].Date.Format("2006-01-02")
	published := make(chan string, len(days)+1)
	e := New(Config{
		Shards: 3, QueueDepth: 256, TrainingDays: fx.training,
		OnReport: func(rep pipeline.EnterpriseDayReport, _ *report.Daily) {
			published <- rep.Day.Format("2006-01-02")
		},
	}, fx.newPipeline())

	var w *parkingWriter
	ckptDone := make(chan error, 1)
	for i, d := range days {
		recs, leases, err := batch.LoadProxyDay(d)
		if err != nil {
			t.Fatal(err)
		}
		if i != ckptDay+1 {
			if err := e.BeginDay(d.Date, leases); err != nil {
				t.Fatal(err)
			}
		}
		switch i {
		case ckptDay:
			ingestChunks(t, e, recs)
			w = &parkingWriter{
				marker:  []byte("\n{\"markerDomains\":"),
				parked:  make(chan struct{}),
				release: make(chan struct{}),
			}
			go func() { ckptDone <- e.Checkpoint(w) }()
			select {
			case <-w.parked:
			case err := <-ckptDone:
				t.Fatalf("checkpoint returned (%v) without writing an open-day section", err)
			case <-time.After(30 * time.Second):
				t.Fatal("checkpoint never reached its open-day section")
			}
			continue
		case ckptDay + 1:
			// Roll ckptDay over while the checkpoint is parked: the close
			// (and any earlier close the rollover waits for) must get
			// through the commit gate and publish.
			rolled := make(chan error, 1)
			go func() { rolled <- e.BeginDay(d.Date, leases) }()
			timeout := time.After(30 * time.Second)
			for waiting := true; waiting; {
				select {
				case date := <-published:
					waiting = date != ckptDate
				case <-timeout:
					close(w.release)
					t.Fatalf("day %s close did not publish while a checkpoint was encoding its open day", ckptDate)
				}
			}
			if err := <-rolled; err != nil {
				t.Fatal(err)
			}
			close(w.release)
			if err := <-ckptDone; err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(bytes.NewReader(w.buf.Bytes()), Config{Shards: 5, QueueDepth: 64},
				RestoreDeps{Whois: fx.whois, Reported: fx.oracle.Reported, IOCs: fx.oracle.IOCs})
			if err != nil {
				t.Fatal(err)
			}
			abandonEngine(e)
			e = restored
			// The restored engine holds ckptDay open; roll it over again.
			if err := e.BeginDay(d.Date, leases); err != nil {
				t.Fatal(err)
			}
		}
		ingestChunks(t, e, recs)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for date, wantJSON := range want {
		got, ok := e.Report(date)
		if !ok {
			t.Errorf("no report for %s", date)
			continue
		}
		if gotJSON := dailyBytes(t, got); !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("day %s: report after the gate-released checkpoint differs from batch", date)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointAllocsIndependentOfVisits: checkpoint allocations scale
// with the open day's distinct state, not with its visit timestamps —
// doubling the visits of every (host, domain) pair may raise the
// allocations per Checkpoint by at most 5%.
func TestCheckpointAllocsIndependentOfVisits(t *testing.T) {
	allocs := func(perPair int) float64 {
		e := trainOnlyEngine(Config{Shards: 2, QueueDepth: 1024})
		defer e.Close()
		day := testDay()
		if err := e.BeginDay(day, nil); err != nil {
			t.Fatal(err)
		}
		var recs []logs.ProxyRecord
		for v := 0; v < perPair; v++ {
			for h := 0; h < 8; h++ {
				for d := 0; d < 16; d++ {
					recs = append(recs, rec(day, fmt.Sprintf("h%d", h), fmt.Sprintf("d%d.test", d),
						time.Duration(v*37+h+d)*time.Second))
				}
			}
		}
		ingestChunks(t, e, recs)
		return testing.AllocsPerRun(5, func() {
			if err := e.Checkpoint(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, doubled := allocs(40), allocs(80)
	if doubled > base*1.05 {
		t.Fatalf("allocs per checkpoint grew from %.0f to %.0f when the visits per pair doubled", base, doubled)
	}
}
