package profile

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/logs"
)

// The reflection encoders below are the section writers as they stood
// before the append-based ones: each record marshalled by json.Encoder from
// the decoder's own struct. They are the differential oracle — the
// production writers must emit exactly their bytes, or fail exactly where
// they fail.

func oracleSaveHistory(h *History, enc *json.Encoder) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if err := enc.Encode(persistHeader{
		Version: persistVersion,
		Days:    h.days,
		Domains: len(h.domains),
		UAs:     len(h.uaHosts),
	}); err != nil {
		return err
	}
	domains := make([]string, 0, len(h.domains))
	for d := range h.domains {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for _, d := range domains {
		if err := enc.Encode(persistDomain{D: d, T: h.domains[d]}); err != nil {
			return err
		}
	}
	uas := make([]string, 0, len(h.uaHosts))
	for ua := range h.uaHosts {
		uas = append(uas, ua)
	}
	sort.Strings(uas)
	for _, ua := range uas {
		hosts := h.uaHosts[ua]
		rec := persistUA{UA: ua, Hosts: make([]string, 0, len(hosts))}
		for host := range hosts {
			rec.Hosts = append(rec.Hosts, host)
		}
		sort.Strings(rec.Hosts)
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

func oracleHostActivity(ha *HostActivity) codecHost {
	ch := codecHost{Host: ha.Host, Times: ha.Times, NoRef: ha.NoRefVisits}
	ch.UAs = make([]string, 0, len(ha.UAs))
	for ua := range ha.UAs {
		ch.UAs = append(ch.UAs, ua)
	}
	sort.Strings(ch.UAs)
	return ch
}

func oracleHostMap(hosts map[string]*HostActivity) []codecHost {
	out := make([]codecHost, 0, len(hosts))
	for _, ha := range hosts {
		out = append(out, oracleHostActivity(ha))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

func oracleSaveBuilder(b *IncrementalBuilder, enc *json.Encoder) error {
	if err := enc.Encode(builderHeader{
		Version: builderCodecVersion,
		Visits:  b.visits,
		Domains: len(b.perDomain),
		UAPairs: len(b.uaPairs),
	}); err != nil {
		return err
	}
	domains := make([]string, 0, len(b.perDomain))
	for d := range b.perDomain {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for _, d := range domains {
		a := b.perDomain[d]
		rec := builderDomainRec{Domain: d, IPSeq: a.ipSeq, Paths: a.paths}
		if a.ip.IsValid() {
			rec.IP = a.ip.String()
		}
		rec.Hosts = oracleHostMap(a.hosts)
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	for _, pair := range sortedUAPairs(b.uaPairs) {
		if err := enc.Encode(uaPairRec{Host: pair[0], UA: pair[1]}); err != nil {
			return err
		}
	}
	return nil
}

func oracleSaveSnapshot(s *Snapshot, enc *json.Encoder) error {
	if err := enc.Encode(snapshotHeader{
		Version:    snapshotCodecVersion,
		Day:        s.Day,
		NewDomains: s.NewDomains,
		AllDomains: s.AllDomains,
		Domains:    len(s.domains),
		UAPairs:    len(s.uaPairs),
		Rare:       len(s.Rare),
	}); err != nil {
		return err
	}
	domains := append([]string(nil), s.domains...)
	sort.Strings(domains)
	for _, d := range domains {
		if err := enc.Encode(snapshotDomainRec{Domain: d}); err != nil {
			return err
		}
	}
	for _, pair := range sortedUAPairs(s.uaPairs) {
		if err := enc.Encode(uaPairRec{Host: pair[0], UA: pair[1]}); err != nil {
			return err
		}
	}
	rare := make([]string, 0, len(s.Rare))
	for d := range s.Rare {
		rare = append(rare, d)
	}
	sort.Strings(rare)
	for _, d := range rare {
		da := s.Rare[d]
		rec := snapshotRareRec{Domain: d}
		if da.IP.IsValid() {
			rec.IP = da.IP.String()
		}
		for p := range da.Paths {
			rec.Paths = append(rec.Paths, p)
		}
		sort.Strings(rec.Paths)
		rec.Hosts = oracleHostMap(da.Hosts)
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// sameSection runs one section through the production writer and the
// oracle and fails unless both succeed with identical bytes or both fail.
func sameSection(t *testing.T, name string, save func(*bufio.Writer) error, oracle func(*json.Encoder) error) {
	t.Helper()
	var got, want bytes.Buffer
	bw := bufio.NewWriter(&got)
	errGot := save(bw)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	errWant := oracle(json.NewEncoder(&want))
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%s: writer error %v, encoding/json error %v", name, errGot, errWant)
	}
	if errGot == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: bytes differ from encoding/json\nwriter:        %q\nencoding/json: %q", name, got.Bytes(), want.Bytes())
	}
}

// sameSections checks all three section writers over one day's state: the
// history the day is classified against, the day's builder, and its
// merged snapshot.
func sameSections(t *testing.T, hist *History, b *IncrementalBuilder, s *Snapshot) {
	t.Helper()
	sameSection(t, "history", hist.SaveTo, func(enc *json.Encoder) error { return oracleSaveHistory(hist, enc) })
	sameSection(t, "builder", b.SaveTo, func(enc *json.Encoder) error { return oracleSaveBuilder(b, enc) })
	sameSection(t, "snapshot", s.SaveTo, func(enc *json.Encoder) error { return oracleSaveSnapshot(s, enc) })
}

// TestSectionWritersMatchJSON runs the differential check over the codec
// fixture day, with a history that makes part of it non-rare.
func TestSectionWritersMatchJSON(t *testing.T) {
	visits := codecVisits(900)
	hist := NewHistory()
	hist.UpdateDomains(time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC), []string{"dom-2.test", "dom-5.test"})
	for i := range visits[:200] {
		hist.UpdateUA(visits[i].Host, visits[i].UserAgent)
	}
	b := buildFromVisits(visits)
	s := mergedSnapshot(buildFromVisits(visits), hist)
	sameSections(t, hist, b, s)
	sameSections(t, NewHistory(), NewIncrementalBuilder(), mergedSnapshot(NewIncrementalBuilder(), NewHistory()))
}

// FuzzCheckpointSectionsMatchJSON builds a history, a builder and its
// merged snapshot from fuzzed domain, host, user-agent and URL strings,
// timestamps (any zone offset, any nanosecond, years outside what RFC 3339
// can carry) and destination addresses (IPv6 zones included), and requires
// the append-based section writers to reproduce encoding/json's bytes, or
// to fail where it fails.
func FuzzCheckpointSectionsMatchJSON(f *testing.F) {
	day := time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC).Unix()
	f.Add("dom.test", "host", "agent/1.0", "/index.html?q=1", day, int64(0), 0, uint8(5))
	f.Add("<b>&\"\\\x00\x1f\x7f", "h\n\t\r\b\f", "\u2028\u2029ua", "/p/\xff\xfe<&>", day, int64(123456789), 5*3600+1800, uint8(40))
	f.Add("\u00fc.example", "\u30db\u30b9\u30c8", "", "", day, int64(1), -(9*3600 + 59*60 + 59), uint8(17))
	f.Add("y10k.test", "h", "ua", "/", int64(253402300800), int64(0), 0, uint8(1)) // 10000-01-01
	f.Add("bc.test", "h", "ua", "/", int64(-62135596801), int64(0), 0, uint8(1))   // year -1
	f.Add("zone.test", "h", "ua", "/", day, int64(0), 24*3600, uint8(2))
	f.Add("zone.test", "h", "ua", "/", day, int64(999999999), 23*3600+59*60, uint8(3))
	f.Fuzz(func(t *testing.T, domain, host, ua, path string, sec, nsec int64, offset int, n uint8) {
		zone := time.UTC
		if offset != 0 {
			zone = time.FixedZone("fz", offset)
		}
		base := time.Unix(sec, nsec).In(zone)
		visits := make([]logs.Visit, 1+int(n%48))
		for i := range visits {
			v := logs.Visit{
				// Out-of-order arrivals within a host, as shards see them.
				Time:   base.Add(time.Duration((i*7919)%97) * time.Second),
				Host:   host + strconv.Itoa(i%3),
				Domain: domain + strconv.Itoa(i%4),
				URL:    "http://x.test" + path + strconv.Itoa(i%21),
				HasRef: i%3 == 0,
			}
			if i%5 != 4 {
				v.HasUA = true
				v.UserAgent = ua + strconv.Itoa(i%2)
			}
			switch i % 3 {
			case 1:
				v.DestIP = netip.AddrFrom4([4]byte{10, byte(n), byte(i), 1})
			case 2:
				v.DestIP = netip.AddrFrom16([16]byte{0: 0xfe, 1: 0x80, 15: byte(i)}).WithZone(host)
			}
			visits[i] = v
		}
		hist := NewHistory()
		hist.UpdateDomains(base, []string{domain + "0", domain + "x"})
		hist.UpdateUA(host, ua)
		hist.UpdateUA(host+"0", ua+"0")
		b := buildFromVisits(visits)
		s := MergeSnapshot(base, []*IncrementalBuilder{buildFromVisits(visits)}, hist, 2)
		sameSections(t, hist, b, s)
	})
}

// TestHistoryTimeErrorMatchesJSON pins the failure half of the contract on
// a plain case: a first-seen day MarshalJSON refuses fails the writer too,
// with the error time.Time.MarshalJSON gives.
func TestHistoryTimeErrorMatchesJSON(t *testing.T) {
	hist := NewHistory()
	far := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	hist.UpdateDomains(far, []string{"far.test"})
	_, want := far.MarshalJSON()
	err := hist.SaveTo(bufio.NewWriter(&bytes.Buffer{}))
	if err == nil || want == nil || err.Error() != fmt.Sprintf("profile: save domain: %v", want) {
		t.Fatalf("SaveTo error %v, want profile: save domain: %v", err, want)
	}
}

// BenchmarkSectionWriters prices the append-based section writers against
// the encoding/json oracle on a history of 4,000 domains and a builder of
// 250 domains with ~8,000 visit timestamps — about one day of the
// synthetic enterprise workload.
func BenchmarkSectionWriters(b *testing.B) {
	day := time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC)
	hist := NewHistory()
	for d := 0; d < 4000; d++ {
		hist.UpdateDomains(day.AddDate(0, 0, -d%60), []string{fmt.Sprintf("dom-%04d.example.com", d)})
	}
	for h := 0; h < 300; h++ {
		hist.UpdateUA(fmt.Sprintf("host%04d", h), fmt.Sprintf("Mozilla/5.0 agent-%d", h%40))
	}
	bld := NewIncrementalBuilder()
	for i := 0; i < 8000; i++ {
		v := logs.Visit{
			Time:   day.Add(time.Duration(i) * 10 * time.Second),
			Host:   fmt.Sprintf("host%04d", i%37),
			Domain: fmt.Sprintf("dom-%04d.example.com", i%250),
			URL:    fmt.Sprintf("http://x.test/p%d?", i%23),
			HasUA:  true, UserAgent: "Mozilla/5.0",
			DestIP: netip.AddrFrom4([4]byte{93, 184, byte(i % 250), 1}),
		}
		bld.Add(uint64(i+1), &v)
	}
	bench := func(name string, save func(*bufio.Writer) error, oracle func(*json.Encoder) error) {
		b.Run(name+"/writer", func(b *testing.B) {
			bw := bufio.NewWriter(io.Discard)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := save(bw); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/encoding-json", func(b *testing.B) {
			enc := json.NewEncoder(bufio.NewWriter(io.Discard))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := oracle(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	bench("history", hist.SaveTo, func(enc *json.Encoder) error { return oracleSaveHistory(hist, enc) })
	bench("builder", bld.SaveTo, func(enc *json.Encoder) error { return oracleSaveBuilder(bld, enc) })
}
