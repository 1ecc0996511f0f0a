package profile

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/logs"
)

// floodParts builds the two partition builders of a DGA-flood-like day:
// nNew domains visited once each by a single host, landing in the part
// their (host, domain) pair hashes to, plus nPopular domains visited by
// every host from both parts, so each popular domain has an aggregate in
// each part and the merge combines them.
func floodParts(nNew, nPopular int) []*IncrementalBuilder {
	const hosts = 200
	day := time.Date(2014, 4, 1, 8, 0, 0, 0, time.UTC)
	parts := []*IncrementalBuilder{NewIncrementalBuilder(), NewIncrementalBuilder()}
	seq := uint64(0)
	add := func(p int, host, domain string) {
		v := logs.Visit{
			Time:      day.Add(time.Duration(seq) * time.Millisecond),
			Host:      host,
			Domain:    domain,
			DestIP:    netip.AddrFrom4([4]byte{198, 18, byte(seq >> 8), byte(seq)}),
			URL:       "/",
			HasUA:     true,
			UserAgent: "Mozilla/5.0 (Windows NT 6.1) corp-browser/31.0",
		}
		parts[p].Add(seq, &v)
		seq++
	}
	for i := 0; i < nNew; i++ {
		host := fmt.Sprintf("host-%03d", i%hosts)
		domain := fmt.Sprintf("dga-%06d.example", i)
		add(PairPartition(host, domain, len(parts)), host, domain)
	}
	for i := 0; i < nPopular; i++ {
		domain := fmt.Sprintf("www.popular-%03d.com", i)
		for h := 0; h < hosts; h++ {
			add(h%len(parts), fmt.Sprintf("host-%03d", h), domain)
		}
	}
	return parts
}

// maxMergeAllocsPerRareDomain bounds the allocations of a day-close merge
// per rare domain on a flood of single-host new domains. The one-pass
// merge reads 1.47 (about one DomainActivity each, plus the amortized
// growth of the per-worker slices and host index); the bound leaves 15 %
// headroom and sits below the 2.29 a merge that builds per-domain side
// maps and walks the rare set twice costs on the same input.
const maxMergeAllocsPerRareDomain = 1.7

// TestMergeSnapshotAllocsPerRareDomain guards the day-close merge against
// regrowing per-domain side state: on a flood of single-host new
// domains, nearly every domain is rare, so the merge's allocations per
// rare domain are what a DGA feed costs at every close.
func TestMergeSnapshotAllocsPerRareDomain(t *testing.T) {
	day := time.Date(2014, 4, 1, 0, 0, 0, 0, time.UTC)
	parts := floodParts(5000, 0)
	hist := NewHistory()
	var rare int
	allocs := testing.AllocsPerRun(5, func() {
		rare = MergeSnapshotParallel(day, parts, hist, 10, 2).RareCount()
	})
	if rare != 5000 {
		t.Fatalf("merge found %d rare domains, want 5000", rare)
	}
	per := allocs / float64(rare)
	t.Logf("%.0f allocs per merge, %.2f per rare domain", allocs, per)
	if per > maxMergeAllocsPerRareDomain {
		t.Fatalf("merge allocates %.2f times per rare domain, want <= %.2f", per, maxMergeAllocsPerRareDomain)
	}
}

// BenchmarkMergeSnapshotNewDomains times the day-close merge of a
// DGA-flood-like day: 50k single-host new domains plus 500 popular domains
// shared by both parts, with one and two merge workers.
func BenchmarkMergeSnapshotNewDomains(b *testing.B) {
	day := time.Date(2014, 4, 1, 0, 0, 0, 0, time.UTC)
	parts := floodParts(50_000, 500)
	hist := NewHistory()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MergeSnapshotParallel(day, parts, hist, 10, workers)
			}
		})
	}
}
