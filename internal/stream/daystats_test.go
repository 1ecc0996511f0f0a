package stream

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/logs"
	"repro/internal/profile"
)

// floodDay builds the frozen shard state a close sees after a flood day,
// routed by (host, domain) as the engine routes: newDomains single-host
// new domains, 500 popular domains visited by 100 of 200 hosts (so they
// span the shards), and markers domains requested only from an unleased
// source (routed on ("", domain)), every tenth of which is also visited
// by a leased host.
func floodDay(shards, newDomains, markers int) ([]*profile.IncrementalBuilder, []map[string]*domainState) {
	parts := make([]*profile.IncrementalBuilder, shards)
	sets := make([]map[string]*domainState, shards)
	for i := range parts {
		parts[i] = profile.NewIncrementalBuilder()
		sets[i] = make(map[string]*domainState)
	}
	day := testDay()
	seq := uint64(0)
	visit := func(host, domain string) {
		si := profile.PairPartition(host, domain, shards)
		if sets[si][domain] == nil {
			sets[si][domain] = &domainState{}
		}
		seq++
		parts[si].Add(seq, &logs.Visit{
			Time: day.Add(time.Duration(seq) * time.Second), Host: host, Domain: domain,
			DestIP: netip.AddrFrom4([4]byte{198, 18, byte(seq >> 8), byte(seq)}), HasUA: true, UserAgent: "ua",
		})
	}
	marker := func(domain string) {
		si := profile.PairPartition("", domain, shards)
		if sets[si][domain] == nil {
			sets[si][domain] = &domainState{}
		}
	}
	for i := 0; i < newDomains; i++ {
		visit(fmt.Sprintf("host-%03d", i%200), fmt.Sprintf("n%07d.test", i))
	}
	for i := 0; i < 500; i++ {
		for h := 0; h < 100; h++ {
			visit(fmt.Sprintf("host-%03d", (i+h)%200), fmt.Sprintf("www.popular-%03d.test", i))
		}
	}
	for i := 0; i < markers; i++ {
		d := fmt.Sprintf("m%07d.test", i)
		marker(d)
		if i%10 == 0 {
			visit("host-000", d)
		}
	}
	return parts, sets
}

// unionDomains is the reference count of DomainsAll: the size of the
// union of the shards' domain sets, built as a map.
func unionDomains(sets []map[string]*domainState) int {
	all := make(map[string]struct{})
	for _, set := range sets {
		for d := range set {
			all[d] = struct{}{}
		}
	}
	return len(all)
}

// closeStats is the statistics step of a close after its merge.
func closeStats(parts []*profile.IncrementalBuilder, sets []map[string]*domainState, snap *profile.Snapshot) int {
	var markers []string
	for i, set := range sets {
		markers = appendMarkers(markers, set, parts[i])
	}
	return dayStats(0, 0, 0, parts, markers, snap).DomainsAll
}

// TestDayStatsCountsUnion checks DomainsAll against the union of the
// shards' domain sets at shard counts up to 32, with domains that span
// shards, markers also kept in another shard, and a marker held by two
// shards (as after a checkpoint restore, which puts every restored marker
// on shard 0 while later unresolved records route by domain).
func TestDayStatsCountsUnion(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8, 32} {
		for _, markers := range []int{0, 300} {
			parts, sets := floodDay(shards, 2000, markers)
			if markers > 0 {
				sets[0]["m0000003.test"] = &domainState{}
				sets[shards-1]["m0000003.test"] = &domainState{}
			}
			snap := profile.MergeSnapshot(testDay(), parts, profile.NewHistory(), 10)
			got, want := closeStats(parts, sets, snap), unionDomains(sets)
			if got != want {
				t.Errorf("shards=%d markers=%d: DomainsAll = %d, union of the shard sets = %d", shards, markers, got, want)
			}
		}
	}
}

// BenchmarkDayStats times the close's DomainsAll count on a 50k-domain
// flood day against building the union map, at several shard counts. The
// count's cost must not grow with the shard count.
func BenchmarkDayStats(b *testing.B) {
	for _, shards := range []int{2, 8, 16, 32} {
		for _, markers := range []int{0, 500} {
			parts, sets := floodDay(shards, 50_000, markers)
			snap := profile.MergeSnapshot(testDay(), parts, profile.NewHistory(), 10)
			name := fmt.Sprintf("shards=%d/markers=%d", shards, markers)
			b.Run(name+"/count", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					closeStats(parts, sets, snap)
				}
			})
			b.Run(name+"/union", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					unionDomains(sets)
				}
			})
		}
	}
}
