package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/intel"
	"repro/internal/loadgen"
	"repro/internal/logs"
	"repro/internal/normalize"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/whois"
)

// dayInput is one day of a closed-loop workload.
type dayInput struct {
	date    time.Time
	leases  map[netip.Addr]string
	chunks  [][]byte // TSV, closedInput.chunk lines each (the last may be short)
	records int
	// The batch pipeline's result for the day, where the workload has a
	// reference: the SOC report's JSON for an operation day, the day
	// summary for a training day.
	refDaily []byte
	refTrain *daySummary
}

// daySummary is what a training day's report carries that a check can
// compare: no SOC report is published for a training day.
type daySummary struct {
	stats               normalize.ProxyStats
	newCount, rareCount int
}

func summarize(rep pipeline.EnterpriseDayReport) daySummary {
	return daySummary{stats: rep.Stats, newCount: rep.NewCount, rareCount: rep.RareCount}
}

// closedInput is a closed-loop workload: days fed one after another, each
// chunk as soon as the previous one is ingested.
type closedInput struct {
	input *arena // the days' TSV
	days  []dayInput
	// chunk is how many records the loop decodes with one ReadProxyBatch
	// and feeds with one IngestBatch.
	chunk int
	// training is the engine's Config.TrainingDays.
	training    int
	newPipeline func(workers int) *pipeline.Enterprise
	// checkpoint writes Engine.Checkpoint after every rollover.
	checkpoint bool
	records    int
	// Reference-run timings of the batch pipeline's day entry points.
	trainMs, processMs []float64
}

func (in *closedInput) addDay(date time.Time, leases map[netip.Addr]string, recs []logs.ProxyRecord) (*dayInput, error) {
	d := dayInput{date: date, leases: leases, records: len(recs)}
	var b []byte
	for i := 0; i < len(recs); i += in.chunk {
		b = b[:0]
		for _, r := range recs[i:min(i+in.chunk, len(recs))] {
			b = logs.AppendProxy(b, r)
		}
		chunk, err := in.input.copy(b)
		if err != nil {
			return nil, err
		}
		d.chunks = append(d.chunks, chunk)
	}
	in.days = append(in.days, d)
	in.records += len(recs)
	return &in.days[len(in.days)-1], nil
}

// trainOnly builds a pipeline for workloads whose days all train: their
// day close profiles the day and commits it to the History, and needs no
// WHOIS or intelligence data.
func trainOnly(workers int) *pipeline.Enterprise {
	return pipeline.NewEnterprise(pipeline.EnterpriseConfig{Workers: workers}, whois.NewRegistry(), nil, nil)
}

// allDaysTrain is the engine TrainingDays that routes every day of a
// train-only workload through the training close.
const allDaysTrain = 1 << 30

// setupEnterpriseReplay builds the paper's workload: the full-scale
// synthetic enterprise (59 days, ~450k records, 24 campaigns, DHCP
// leases), encoded as TSV, with the batch pipeline's reports as reference.
//
// Why: it is the only workload where detection (the operation-day close)
// and rollover checkpoints do real work, and the only one whose SOC
// reports can be checked byte for byte.
func setupEnterpriseReplay(seed int64, input *arena, tr *tracer) (*closedInput, error) {
	const calibrationDays = 14 // as reprod -full
	g := gen.NewEnterprise(eval.EnterpriseScale(eval.ScaleFull, seed))
	reg := whois.NewRegistry()
	gen.PopulateWHOIS(reg, g.Truth, g.RareRegistrations(), g.DayTime(g.NumDays()))
	oracle := intel.NewOracle()
	gen.PopulateOracle(oracle, g.Truth, gen.OracleConfig{Seed: seed})
	newPipe := func(workers int) *pipeline.Enterprise {
		return pipeline.NewEnterprise(pipeline.EnterpriseConfig{CalibrationDays: calibrationDays, Workers: workers},
			reg, oracle.Reported, oracle.IOCs)
	}
	// Chunks of 4096 records, as ReplayDir feeds the engine.
	in := &closedInput{input: input, chunk: 4096, training: g.Config().TrainingDays, newPipeline: newPipe, checkpoint: true}

	ref := newPipe(0)
	root := tr.id()
	rootStart := time.Now()
	for i := 0; i < g.NumDays(); i++ {
		date, recs, leases := g.DayTime(i), g.Day(i), g.DHCPMap(i)
		day, err := in.addDay(date, leases, recs)
		if err != nil {
			return nil, err
		}
		shared := date.Format("2006-01-02")
		start := time.Now()
		if i < in.training {
			s := summarize(ref.Train(date, recs, leases))
			end := time.Now()
			tr.add(0, root, "Train", "pipeline", shared, start, end, len(recs))
			in.trainMs = append(in.trainMs, ms(end.Sub(start)))
			day.refTrain = &s
			continue
		}
		rep, err := ref.Process(date, recs, leases)
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("reference day %s: %w", shared, err)
		}
		tr.add(0, root, "Process", "pipeline", shared, start, end, len(recs))
		in.processMs = append(in.processMs, ms(end.Sub(start)))
		var buf bytes.Buffer
		if err := report.Build(rep).WriteJSON(&buf); err != nil {
			return nil, err
		}
		day.refDaily = buf.Bytes()
	}
	tr.add(root, 0, "setup", "bench", "setup", rootStart, time.Now(), in.records)
	return in, nil
}

// dga-flood sizing: each day, half the records go to second-level domains
// never seen before and half to a popular set.
const (
	dgaDays       = 4
	dgaNewPerDay  = 50_000
	dgaPopular    = 500
	dgaHosts      = 200
	dgaDayRecords = 2 * dgaNewPerDay
)

// setupDGAFlood builds dgaDays days in which every other record visits a
// fresh random second-level domain (a DGA-like flood) and the rest visit a
// skewed popular set.
//
// Why: the fresh domains miss the history cache and insert new builder and
// History state on every record, so this exercises the apply path's miss
// side and measures how state, and memory, grow per distinct domain.
func setupDGAFlood(seed int64, input *arena) (*closedInput, error) {
	// Chunks of 4096 records, as ReplayDir feeds the engine.
	in := &closedInput{input: input, chunk: 4096, training: allDaysTrain, newPipeline: trainOnly}
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2014, 4, 1, 0, 0, 0, 0, time.UTC)
	hosts := make([]string, dgaHosts)
	srcs := make([]netip.Addr, dgaHosts)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("dga-host-%03d", i)
		srcs[i] = netip.AddrFrom4([4]byte{10, 30, byte(i >> 8), byte(i)})
	}
	popular := make([]string, dgaPopular)
	for i := range popular {
		popular[i] = fmt.Sprintf("www.popular-%03d.com", i)
	}
	tlds := []string{"com", "net", "org", "info", "biz"}
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	label := make([]byte, 14)
	recs := make([]logs.ProxyRecord, dgaDayRecords)
	for d := 0; d < dgaDays; d++ {
		day := base.AddDate(0, 0, d)
		step := 14 * time.Hour / dgaDayRecords
		for i := range recs {
			h := rng.Intn(dgaHosts)
			var domain string
			dest := netip.AddrFrom4([4]byte{198, 18, byte(rng.Intn(256)), byte(rng.Intn(256))})
			if i%2 == 0 {
				for j := range label {
					label[j] = letters[rng.Intn(len(letters))]
				}
				domain = string(label) + "." + tlds[rng.Intn(len(tlds))]
			} else {
				f := rng.Float64()
				domain = popular[int(f*f*dgaPopular)]
			}
			recs[i] = logs.ProxyRecord{
				Time:      day.Add(8*time.Hour + time.Duration(i)*step),
				Host:      hosts[h],
				SrcIP:     srcs[h],
				Domain:    domain,
				DestIP:    dest,
				URL:       "/",
				Method:    "GET",
				Status:    200,
				UserAgent: "Mozilla/5.0 (Windows NT 6.1) corp-browser/31.0",
			}
		}
		if _, err := in.addDay(day, nil, recs); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// live-soak pacing: one TCP connection at a fixed rate, in frames of
// soakFrameRecords records, with an engine scrape every soakSnapshotEvery.
// A soak runs soakDays days of soakDayFrames frames on a fresh engine: the
// benchmark rolls each day over with BeginDay(next) as soon as the engine
// has the day's last record, and ends the last day with a Flush. A run
// repeats soaks, so that its percentiles pool many days and scrapes.
const (
	soakDays          = 40
	soakDayFrames     = 24 // about an eighth of a second at soakRate
	soakRate          = 50_000
	soakFrameRecords  = 256
	soakSnapshotEvery = 250 * time.Millisecond
	soakSnapshotLive  = 25
	// soakVirtualRate is the model's records per virtual second; a record's
	// index, and so its frame's due time, is recovered from its timestamp.
	soakVirtualRate = 1000
	soakDayRecords  = soakDayFrames * soakFrameRecords
)

// soakFirstDay is loadgen.Model's default day.
var soakFirstDay = time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)

// soakInput is the live-soak workload: soakDays days of loadgen.Model
// traffic, pre-encoded as frames.
type soakInput struct {
	input  *arena // the frames
	days   []time.Time
	tick   time.Duration
	frames [][]byte // every day's frames, in send order
}

// setupLiveSoak pre-encodes soakDays days of loadgen.Model traffic (200
// hosts, 500 domains, 3 C&C beacons; one model per day, seeded from seed)
// as 256-record frames, soakDayFrames a day.
//
// Why: it is the only workload that drives the inputs layer (framed TCP
// listener), and the only one where reads (the /stats scrape's Snapshot)
// run beside a live feed, timed open loop from each batch's due time.
func setupLiveSoak(seed int64, input *arena) (*soakInput, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &soakInput{input: input, tick: time.Second / soakVirtualRate}
	recs := make([]logs.ProxyRecord, 0, soakFrameRecords)
	var b []byte
	for d := 0; d < soakDays; d++ {
		day := soakFirstDay.AddDate(0, 0, d)
		m := loadgen.NewModel(loadgen.ModelConfig{Seed: rng.Int63(), Day: day, VirtualRate: soakVirtualRate})
		in.days = append(in.days, day)
		for i := 0; i < soakDayFrames; i++ {
			recs = m.Fill(recs[:0], soakFrameRecords)
			b = b[:0]
			for _, r := range recs {
				b = logs.AppendProxy(b, r)
			}
			frame, err := in.input.copy(b)
			if err != nil {
				return nil, err
			}
			in.frames = append(in.frames, frame)
		}
	}
	return in, nil
}

// dayOf returns the soak day a record belongs to.
func (in *soakInput) dayOf(r logs.ProxyRecord) int {
	return int(r.Time.Sub(in.days[0]) / (24 * time.Hour))
}

// recordIndex recovers a record's position in the soak's stream from its
// virtual timestamp: each day's model starts its clock at 08:00 and
// advances it one tick before each record. Record i travels in frame
// i/soakFrameRecords.
func (in *soakInput) recordIndex(r logs.ProxyRecord) int {
	d := in.dayOf(r)
	origin := in.days[d].Add(8 * time.Hour)
	return d*soakDayRecords + int((r.Time.Sub(origin)+in.tick/2)/in.tick) - 1
}
